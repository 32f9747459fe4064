"""Span tracing for the benchmark's traced run.

The wrappers live here, in the benchmark, and are installed around the
package's public functions for the duration of one traced operation.  A
module that bound a name at import time (``from .indices import
shapley_int_ltf_dp`` in ``solver``) looks the name up in its own namespace,
so every namespace that holds the original function gets the wrapper.

A span records name, start, end and parent.  Busy time of a layer is the
summed duration of its outermost spans; self time subtracts the part of each
span covered by its child spans.  A call nested inside a span of the same
name (``validate_candidate`` calling ``shapley_int_ltf_dp`` from ``solver``)
is folded into the outer span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

_clock = time.perf_counter


class Tracer:
    """Per-name aggregates plus a bounded list of raw spans."""

    def __init__(self, op_id: int = 0, max_spans: int = 20_000) -> None:
        self.op_id = op_id
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def push(self, name: str):
        if self._active[name]:
            return None
        self._active[name] += 1
        self._next_id += 1
        frame = [name, _clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame) -> None:
        if frame is None:
            return
        end = _clock()
        # an interrupted child may still sit above this frame; unwind it too
        while self._stack and self._stack[-1] is not frame:
            self._active[self._stack.pop()[0]] -= 1
        self._stack.pop()
        name, start, child, span_id = frame
        self._active[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((self.op_id, span_id, parent[3] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def merge(self, other: "Tracer") -> None:
        for src, dst in (
            (other.calls, self.calls),
            (other.busy, self.busy),
            (other.self_s, self.self_s),
            (other.counters, self.counters),
        ):
            for k, v in src.items():
                dst[k] += v
        room = self.max_spans - len(self.spans)
        self.spans.extend(other.spans[:room])
        self.dropped += other.dropped + max(0, len(other.spans) - room)


@dataclass(frozen=True)
class Probe:
    """One span around a call; before/after return {counter: increment}.

    Counters are kept only for the outermost span of a name, like its time.
    """

    name: str
    before: object = None  # (args, kwargs) -> dict
    after: object = None  # (args, kwargs, result) -> dict


def _wrap(fn, probes: list[Probe], holder: list):
    """fn inside one span per probe, outermost first; holder[0] is the live tracer."""
    for probe in reversed(probes):
        fn = _span(fn, probe, holder)
    return fn


def _span(fn, probe: Probe, holder: list):
    def wrapper(*args, **kwargs):
        tr = holder[0]
        frame = tr.push(probe.name)
        if frame is not None and probe.before is not None:
            for k, v in probe.before(args, kwargs).items():
                tr.count(f"{probe.name}.{k}", v)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.pop(frame)
        if frame is not None and probe.after is not None:
            for k, v in probe.after(args, kwargs, out).items():
                tr.count(f"{probe.name}.{k}", v)
        return out

    return wrapper


@dataclass
class Target:
    """A function (``attr``) or method (``Class.method``) of ``module`` to wrap.

    ``probes`` apply wherever the function is found; ``outer`` maps a module
    name to extra probes that apply only to that module's reference.
    ``returns`` wraps the callable that a factory function returns.
    """

    module: str
    attr: str
    probes: list[Probe]
    outer: dict[str, list[Probe]] = field(default_factory=dict)
    returns: list[Probe] = field(default_factory=list)


class Installer:
    """Installs wrappers over a set of modules; ``absent`` lists lost targets."""

    def __init__(self, modules: dict, targets: list[Target]) -> None:
        self.modules = modules
        self.targets = targets
        self.holder: list = [Tracer()]
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        for t in targets:
            if self._resolve(t) is None:
                self.absent.append(f"{t.module}.{t.attr}")

    def _resolve(self, t: Target):
        obj = self.modules.get(t.module)
        parts = t.attr.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part, None)
        if obj is None:
            return None
        fn = getattr(obj, parts[-1], None)
        if fn is None:
            return None
        return obj, parts[-1], fn

    def _with_returns(self, fn, probes: list[Probe]):
        holder = self.holder

        def factory(*args, **kwargs):
            return _wrap(fn(*args, **kwargs), probes, holder)

        return factory

    def install(self, tracer: Tracer) -> None:
        self.holder[0] = tracer
        for t in self.targets:
            found = self._resolve(t)
            if found is None:
                continue
            owner, attr, fn = found
            inner = self._with_returns(fn, t.returns) if t.returns else fn
            if "." in t.attr:
                self._set(owner, attr, _wrap(inner, t.probes, self.holder))
                continue
            for mod_name, mod in self.modules.items():
                if mod.__dict__.get(attr) is fn:
                    probes = t.outer.get(mod_name, []) + t.probes
                    self._set(mod, attr, _wrap(inner, probes, self.holder))

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
