import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))
# pyproject's pythonpath covers this process; CLI subprocesses need it too
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_table(rng: np.random.Generator, n: int) -> np.ndarray:
    """Truth table of a [-1, 1]-bounded function, LSB-first indexing."""
    return rng.uniform(-1.0, 1.0, size=2**n)


def table_batch_fn(values: np.ndarray, n: int):
    """Batch oracle over a truth table, matching the package convention."""

    def fn(X: np.ndarray) -> np.ndarray:
        idx = ((X == 1).astype(np.int64) * (1 << np.arange(n))).sum(axis=1)
        return values[idx]

    return fn
