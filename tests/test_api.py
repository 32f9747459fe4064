import shapley_forge


def test_every_export_resolves():
    # exports load lazily, so a stale entry would only fail at first access
    for name in shapley_forge.__all__:
        assert getattr(shapley_forge, name) is not None, name
