"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces module attributes of ``framescale.repair``,
``framescale.scaling`` and ``framescale.serialize`` with timing wrappers,
and ``uninstall`` puts the originals back. The program looks these names
up in its own module globals at call time, so calls between its modules
(``repair`` -> ``perturb_to_general_position`` -> ``all_d_subsets_independent``)
pass through the wrappers too. A name the program no longer has is skipped:
its metrics read 0 calls.

Functions called once or a few times per op get a span each. Functions
called per vector or per line-search trial (``COUNTED``) only add a call
count and their time to the innermost open span, which keeps the overhead
of tracing a 1024-vector audit small.

Spans stay in memory until ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, attribute) pairs that get one span per call.
SPANNED = (
    ("repair", "repair"),
    ("repair", "perturb_to_general_position"),
    ("repair", "all_d_subsets_independent"),
    ("repair", "solve_radial_isotropic"),
    ("repair", "audit_lemma_chain"),
    ("repair", "reverify"),
    ("serialize", "write_report"),
    ("serialize", "read_report"),
    ("serialize", "report_to_dict"),
)

# (module, attribute) pairs that only count calls and time.
COUNTED = (
    ("repair", "frame_metrics"),
    ("repair", "majorizes"),
    ("repair", "transport_distance"),
    ("scaling", "scaling_potential"),
)

# Spans whose Python-heap peak is measured with tracemalloc.
MEMORY_SPANS = frozenset({"repair.solve_radial_isotropic"})

OP_PREFIX = "op."


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    calls: Counter = field(default_factory=Counter)
    busy: Counter = field(default_factory=Counter)
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def _push(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._op, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _pop(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str) -> int:
        """Open the root span of one op; close it with ``end``."""
        self._op += 1
        return self._push(OP_PREFIX + kind)

    def end(self, index: int) -> None:
        self._pop(index)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._push(name)
            measure = name in MEMORY_SPANS
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    self.spans[index].info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._pop(index)
            if name == "repair.solve_radial_isotropic":
                self.spans[index].info["iterations"] = result.iterations
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._stack:
                    span = self.spans[self._stack[-1]]
                    span.calls[name] += 1
                    span.busy[name] += time.perf_counter() - start

        return wrapper

    def install(self, modules: dict) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for key, attr in table:
                module = modules[key]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, make(f"{key}.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        rows = []
        for span in self.spans:
            row = asdict(span)
            row["calls"] = dict(span.calls)
            row["busy"] = dict(span.busy)
            rows.append(row)
        path.write_text(json.dumps(rows) + "\n")


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced phase, keyed by benchmark metric name.

    Times are seconds. "Per repair op" and "per audit op" divide by the
    ops of that kind in the phase; "per call" divides by the calls of the
    function named.
    """
    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def leaf(names: tuple[str, ...], within: list[Span]) -> tuple[float, int]:
        busy = sum(s.busy[n] for s in within for n in names)
        calls = sum(s.calls[n] for s in within for n in names)
        return busy, calls

    repair_ops = len(named(OP_PREFIX + "repair"))
    ops = repair_ops + len(named(OP_PREFIX + "audit"))
    gp = total("repair.perturb_to_general_position")
    solves = named("repair.solve_radial_isotropic")
    solve = sum(s.seconds for s in solves)
    audits = named("repair.audit_lemma_chain")
    reverifies = named("repair.reverify")
    reads = named("serialize.read_report")
    writes = named("serialize.write_report")
    emits = [
        s for s in named("serialize.report_to_dict")
        if s.parent is not None and spans[s.parent].name.startswith(OP_PREFIX)
    ]
    subsets = named("repair.all_d_subsets_independent")
    major_s, major_calls = leaf(("repair.majorizes", "repair.transport_distance"), audits)
    metrics_s, metrics_calls = leaf(("repair.frame_metrics",), spans)
    _, potential_calls = leaf(("scaling.scaling_potential",), spans)
    return {
        "repair.general_position_s": _mean(gp, repair_ops),
        "repair.self_s": _mean(total("repair.repair") - gp - solve, repair_ops),
        "repair.audit_s": _mean(sum(s.seconds for s in audits), len(audits)),
        "repair.reverify_s": _mean(sum(s.seconds for s in reverifies), len(reverifies)),
        "polytope.subsets_s": _mean(sum(s.seconds for s in subsets), repair_ops),
        "polytope.subsets_calls": _mean(len(subsets), repair_ops),
        "scaling.solve_s": _mean(solve, len(solves)),
        "scaling.newton_iters": _mean(sum(s.info.get("iterations", 0) for s in solves), len(solves)),
        "scaling.potential_calls": _mean(potential_calls, len(solves)),
        "scaling.solve_peak_mb": max((s.info.get("peak_bytes", 0) for s in solves), default=0) / 2**20,
        "majorization.s": _mean(major_s, len(audits)),
        "majorization.calls": _mean(major_calls, len(audits)),
        "serialize.read_s": _mean(sum(s.seconds for s in reads), len(reads)),
        "serialize.emit_s": _mean(sum(s.seconds for s in emits), len(emits)),
        "serialize.write_s": _mean(sum(s.seconds for s in writes), len(writes)),
        "frames.metrics_s": _mean(metrics_s, ops),
        "frames.metrics_calls": _mean(metrics_calls, ops),
    }
