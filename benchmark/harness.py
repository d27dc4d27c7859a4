"""The framescale benchmark: workloads, ops, timing and the result line.

A *repair op* is what ``framescale repair`` does, in-process: ``repair``,
then ``audit_lemma_chain``, then ``write_report``. An *audit op* is what
``framescale audit`` does: ``read_report``, ``reverify``,
``audit_lemma_chain`` and ``report_to_dict``. On ``wide``, ``tall`` and
``degenerate`` each round repairs every input and audits each report it
wrote. On ``audit`` the reports are written during set-up and each round
audits all of them.

Every op's output is checked outside its timed interval (see checker.py).
A run attempts whole rounds only, so its share of failed ops is the same
whatever its length. With ``--trace 1`` the run spends half its time
untraced and half traced, and prints the per-layer figures of the traced
half together with the tracing slowdown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

import checker
from tracer import Tracer, layer_metrics

DELTA = 1e-9
SETUP_REPEATS = 5
# Rounds of report-writing repairs on ``audit``; the last round's reports are audited.
REPORT_ROUNDS = 3


@dataclass(frozen=True)
class Spec:
    """One input: an ENPF perturbed to ``eps``, or with its first vector scaled.

    ``fixed_seed`` makes the input independent of the run's seed. It is used
    only for inputs that fail today, so that every run fails on the same ops.
    """

    d: int
    n: int
    eps: float | None = None
    scale: float | None = None
    fixed_seed: int | None = None

    @property
    def label(self) -> str:
        change = f"eps={self.eps:g}" if self.eps is not None else f"v0*{self.scale:g}"
        return f"d={self.d} n={self.n} {change}"


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    smoke_specs: tuple[Spec, ...]
    audit_only: bool = False


def _perturbed(cells, eps: float) -> tuple[Spec, ...]:
    return tuple(Spec(d, n, eps=eps) for d, n in cells)


_HARMONIC = tuple((d, k * d) for d in (3, 4, 5, 6) for k in (2, 3))
_ODD_HARMONIC = tuple((d, n) for d, n in _HARMONIC if d % 2)
# Shapes whose scaled harmonic frame passes the general-position gate.
_SCALED_OK = ((3, 6), (3, 9), (4, 8), (5, 10), (5, 15))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", _perturbed(((48, 192), (56, 224), (64, 256)), 1e-2), _perturbed(((8, 32),), 1e-2)),
        Workload("tall", _perturbed(((4, 1024), (6, 1536), (8, 2048)), 1e-2), _perturbed(((3, 128),), 1e-2)),
        Workload(
            "degenerate",
            _perturbed(_HARMONIC, 1e-2)
            + _perturbed(_ODD_HARMONIC, 1e-5)
            + _perturbed(_ODD_HARMONIC, 1e-7)
            + tuple(Spec(d, n, scale=s) for s in (0.8, 0.97) for d, n in _SCALED_OK)
            # The gate rejects these repairable frames on every seed.
            + (
                Spec(4, 12, scale=0.8, fixed_seed=0),
                Spec(6, 12, scale=0.97, fixed_seed=0),
                Spec(4, 12, eps=1e-7, fixed_seed=0),
            ),
            (Spec(3, 6, eps=1e-2), Spec(4, 8, scale=0.8), Spec(4, 12, scale=0.8, fixed_seed=0)),
        ),
        Workload(
            "audit",
            _perturbed(((4, 512), (8, 512), (4, 1024), (8, 1024), (16, 1024)), 1e-2),
            _perturbed(((3, 48), (4, 64)), 1e-2),
            audit_only=True,
        ),
    )
}


@dataclass(frozen=True)
class Program:
    package: ModuleType
    repair: ModuleType
    scaling: ModuleType
    serialize: ModuleType

    def modules(self) -> dict[str, ModuleType]:
        return {"repair": self.repair, "scaling": self.scaling, "serialize": self.serialize}


def load_program() -> Program:
    """Import framescale afresh, so that work done at import time counts in set-up."""
    for name in [m for m in sys.modules if m == "framescale" or m.startswith("framescale.")]:
        del sys.modules[name]
    package = importlib.import_module("framescale")
    return Program(
        package,
        *(importlib.import_module(f"framescale.{m}") for m in ("repair", "scaling", "serialize")),
    )


@dataclass(frozen=True)
class Item:
    label: str
    frame: object
    seed: int


@dataclass(frozen=True)
class Stored:
    """A report on disk and the frames it was written with."""

    path: Path
    V: np.ndarray
    W: np.ndarray


@dataclass
class Tally:
    """Op times, failures and wrong answers of one part of a run."""

    repair_s: list[float] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.repair_s) + len(self.audit_s)

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        self.failures[f"{what}: {reason}"] += 1

    def judge(self, what: str, verdict: bool, problems: list[str], ratio: float) -> bool:
        """Count the op as certified, failed or wrong; True if certified and correct."""
        if verdict and problems:
            self.wrong.append(f"{what}: certified, but {problems[0]}")
            return False
        if not verdict:
            self.fail(what, "not certified")
            return False
        self.ratios.append(ratio)
        return True

    def merge(self, other: "Tally") -> "Tally":
        return Tally(
            self.repair_s + other.repair_s,
            self.audit_s + other.audit_s,
            self.failed + other.failed,
            self.failures + other.failures,
            self.wrong + other.wrong,
            self.ratios + other.ratios,
        )


def child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


def build_items(program: Program, specs: tuple[Spec, ...], seed: int) -> list[Item]:
    pkg = program.package
    items = []
    for k, spec in enumerate(specs):
        s = spec.fixed_seed if spec.fixed_seed is not None else child_seed(seed, k)
        enpf = pkg.generate_enpf(spec.d, spec.n, s)
        if spec.eps is not None:
            frame = pkg.perturb_frame(enpf, spec.eps, s)
        else:
            vectors = enpf.vectors.copy()
            vectors[0] *= spec.scale
            frame = pkg.Frame(vectors)
        items.append(Item(spec.label, frame, s))
    return items


def _reason(exc: RuntimeError) -> str:
    """The exception's type and message, cut before instance values such as "at eta_max=..."."""
    return f"{type(exc).__name__}: {str(exc).split(' at ')[0]}"


def repair_op(program: Program, item: Item, path: Path, tally: Tally, tracer: Tracer | None = None) -> Stored | None:
    """One timed repair op; returns the written report if it is certified and correct."""
    root = tracer.begin_op("repair") if tracer else None
    error = None
    start = time.perf_counter()
    try:
        report = program.repair.repair(item.frame, DELTA, item.seed)
        audit = program.repair.audit_lemma_chain(report)
        program.serialize.write_report(path, report, audit)
    except RuntimeError as exc:
        error = exc
    tally.repair_s.append(time.perf_counter() - start)
    if root is not None:
        tracer.end(root)
    what = f"repair {item.label}"
    if error is not None:
        tally.fail(what, _reason(error))
        return None
    V, W = item.frame.vectors, report.output_frame.vectors
    ok = tally.judge(
        what,
        report.certified and audit.passed,
        checker.repair_problems(V, W, DELTA),
        report.dist_sq_vw / report.bound,
    )
    return Stored(path, V, W) if ok else None


def audit_op(program: Program, stored: Stored, tally: Tally, tracer: Tracer | None = None) -> None:
    """One timed audit op on a stored report, checked against numpy and the verdict in the file."""
    root = tracer.begin_op("audit") if tracer else None
    error = None
    start = time.perf_counter()
    try:
        report = program.serialize.read_report(stored.path)
        fresh = program.repair.reverify(report)
        audit = program.repair.audit_lemma_chain(fresh)
        payload = program.serialize.report_to_dict(fresh, audit)
    except RuntimeError as exc:
        error = exc
    tally.audit_s.append(time.perf_counter() - start)
    if root is not None:
        tracer.end(root)
    what = f"audit {stored.path.name}"
    if error is not None:
        tally.fail(what, _reason(error))
        return
    V, W = fresh.input_frame.vectors, fresh.output_frame.vectors
    dist = checker.distance_sq(V, W)
    mismatches = []
    if not (np.array_equal(V, stored.V) and np.array_equal(W, stored.W)):
        mismatches.append("frames changed in the JSON round trip")
    if not math.isclose(fresh.dist_sq_vw, dist, rel_tol=1e-9):
        mismatches.append(f"dist_sq_vw {fresh.dist_sq_vw!r} differs from numpy {dist!r}")
    if fresh.certified != report.certified:
        mismatches.append("verdict differs from the stored one")
    if payload["certified"] != fresh.certified or payload["audit"]["passed"] != audit.passed:
        mismatches.append("emitted JSON disagrees with the report")
    tally.wrong.extend(f"{what}: {m}" for m in mismatches)
    tally.judge(what, fresh.certified and audit.passed, checker.repair_problems(V, W, DELTA), fresh.dist_sq_vw / fresh.bound)


def tamper_problems(program: Program, stored: Stored, tmp: Path) -> list[str]:
    """A report whose first output vector is scaled by 1.5 must not re-verify."""
    data = json.loads(stored.path.read_text())
    output = data["frames"]["output"]["vectors"]
    output[0] = [1.5 * x for x in output[0]]
    path = tmp / "tampered.json"
    path.write_text(json.dumps(data))
    fresh = program.repair.reverify(program.serialize.read_report(path))
    problems = []
    if fresh.certified:
        problems.append("a report with an output vector scaled by 1.5 re-verified as certified")
    if not checker.repair_problems(stored.V, np.array(output), DELTA):
        problems.append("the checker accepted an output vector scaled by 1.5")
    return problems


class Run:
    """One benchmark process: set-up, warm-up and timed rounds of one workload."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.specs = workload.smoke_specs if smoke else workload.specs
        self.setup_s: list[float] = []
        self.report_tally = Tally()
        self.last: Stored | None = None

    def set_up(self) -> None:
        """Import and build the inputs, several times; on ``audit``, then write the reports.

        The report-writing repairs are timed and checked as repair ops, so
        ``audit`` reports repair figures for its own input shapes.
        """
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            program = load_program()
            items = build_items(program, self.specs, self.seed)
            self.setup_s.append(time.perf_counter() - start)
        self.program, self.items, self.stored = program, items, []
        if self.workload.audit_only:
            for _ in range(REPORT_ROUNDS):
                self.stored = []
                for k, item in enumerate(items):
                    stored = repair_op(program, item, self.tmp / f"report{k}.json", self.report_tally)
                    if stored is not None:
                        self.stored.append(stored)

    def round(self, tally: Tally, tracer: Tracer | None = None) -> None:
        if self.workload.audit_only:
            for stored in self.stored:
                audit_op(self.program, stored, tally, tracer)
            return
        for k, item in enumerate(self.items):
            stored = repair_op(self.program, item, self.tmp / f"report{k}.json", tally, tracer)
            if stored is not None:
                audit_op(self.program, stored, tally, tracer)
                self.last = stored

    def warm_up(self) -> Tally:
        """One untimed op of each kind; returns its tally for the wrong answers only."""
        tally = Tally()
        if self.workload.audit_only:
            audit_op(self.program, self.stored[0], tally)
        else:
            self.last = repair_op(self.program, self.items[0], self.tmp / "warmup.json", tally)
            if self.last is not None:
                audit_op(self.program, self.last, tally)
        return tally

    def phase(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        tally = Tally()
        deadline = time.perf_counter() + seconds
        while True:
            self.round(tally, tracer)
            if time.perf_counter() >= deadline:
                return tally

    def tamper_check(self) -> list[str]:
        stored = self.stored[0] if self.workload.audit_only else self.last
        if stored is None:
            return ["no certified report to tamper with"]
        return tamper_problems(self.program, stored, self.tmp)


PER_LAYER_UNITS = {
    "repair.general_position_s": "s",
    "repair.self_s": "s",
    "repair.audit_s": "s",
    "repair.reverify_s": "s",
    "repair.dist_ratio_max": "ratio",
    "polytope.subsets_s": "s",
    "polytope.subsets_calls": "count",
    "scaling.solve_s": "s",
    "scaling.newton_iters": "count",
    "scaling.potential_calls": "count",
    "scaling.solve_peak_mb": "MB",
    "majorization.s": "s",
    "majorization.calls": "count",
    "serialize.read_s": "s",
    "serialize.emit_s": "s",
    "serialize.write_s": "s",
    "serialize.report_mb": "MB",
    "frames.metrics_s": "s",
    "frames.metrics_calls": "count",
    "trace.time_ratio": "x",
}


def _rate(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def _median(times: list[float]) -> float:
    return statistics.median(times) if times else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, smoke: bool = False):
    """Run one workload; returns (result line, tally, tracer or None)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reports-", dir=out_dir))
    try:
        run = Run(WORKLOADS[name], seed, tmp, smoke)
        run.set_up()
        warm = run.warm_up()
        tracer = None
        if trace:
            plain = run.phase(seconds / 2)
            tracer = Tracer()
            tracer.install(run.program.modules())
            try:
                traced = run.phase(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tally = run.report_tally.merge(plain).merge(traced)
            slowdown = (
                (sum(traced.repair_s) + sum(traced.audit_s)) / traced.attempted
            ) / ((sum(plain.repair_s) + sum(plain.audit_s)) / plain.attempted)
            figures = layer_metrics(tracer.spans)
            figures["repair.dist_ratio_max"] = max(tally.ratios, default=0.0)
            sizes = [p.stat().st_size for p in tmp.glob("report*.json")]
            figures["serialize.report_mb"] = statistics.mean(sizes) / 2**20 if sizes else 0.0
            figures["trace.time_ratio"] = slowdown
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in figures.items()}
        else:
            tally = run.report_tally.merge(run.phase(seconds))
            metrics = {
                "setup_s": {"value": _median(run.setup_s), "unit": "s"},
                "repair_s.p50": {"value": _median(tally.repair_s), "unit": "s"},
                "repairs_per_s": {"value": _rate(tally.repair_s), "unit": "1/s"},
                "audit_s.p50": {"value": _median(tally.audit_s), "unit": "s"},
                "audits_per_s": {"value": _rate(tally.audit_s), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
        tally.wrong.extend(warm.wrong)
        tally.wrong.extend(run.tamper_check())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, tally, tracer


def main(argv: list[str], root: Path, blas_threads: int) -> int:
    parser = argparse.ArgumentParser(description="framescale benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    out_dir = root / ".bench_out"
    result, tally, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"trace-{stem}.json")
    (out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    err = sys.stderr
    print(f"workload={args.workload} seed={args.seed} blas_threads={blas_threads} "
          f"numpy={np.__version__} attempted={tally.attempted} failed={tally.failed}", file=err)
    for reason, count in sorted(tally.failures.items()):
        print(f"  failed x{count}: {reason}", file=err)
    for message in tally.wrong:
        print(f"  WRONG: {message}", file=err)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=err)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
