"""Tests of the benchmark's checker and tracer, and a smoke run of each workload."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checker
import harness
from framescale import generate_enpf, perturb_frame
from tracer import Tracer, layer_metrics

DELTA = harness.DELTA
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _enpf() -> np.ndarray:
    return generate_enpf(4, 12, 0).vectors


def test_checker_accepts_enpf_as_its_own_repair():
    V = _enpf()
    assert checker.repair_problems(V, V, DELTA) == []


def test_checker_rejects_frame_scaled_by_1_01():
    V = _enpf()
    problems = checker.repair_problems(V, 1.01 * V, DELTA)
    assert any("eigenvalues" in p for p in problems)
    assert any("squared norm" in p for p in problems)


def test_checker_rejects_distance_beyond_bound():
    V = perturb_frame(generate_enpf(4, 12, 0), 1e-4, 0).vectors
    W = generate_enpf(4, 12, 1).vectors  # an exact ENPF, rotated away from V
    problems = checker.repair_problems(V, W, DELTA)
    assert len(problems) == 1 and "exceeds 20 eps d^2" in problems[0]


def test_checker_rejects_wrong_shape():
    V = _enpf()
    problems = checker.repair_problems(V, V[:-1], DELTA)
    assert len(problems) == 1 and "shape" in problems[0]


def test_tracer_skips_missing_functions_and_restores_originals():
    def write_report(*args):
        return "written"

    modules = {
        "repair": SimpleNamespace(),
        "scaling": SimpleNamespace(),
        "serialize": SimpleNamespace(write_report=write_report),
    }
    tracer = Tracer()
    tracer.install(modules)
    root = tracer.begin_op("repair")
    assert modules["serialize"].write_report() == "written"
    tracer.end(root)
    tracer.uninstall()
    assert modules["serialize"].write_report is write_report
    figures = layer_metrics(tracer.spans)
    assert figures["serialize.write_s"] > 0
    assert figures["polytope.subsets_calls"] == 0 and figures["scaling.solve_s"] == 0


@pytest.fixture
def keep_framescale_modules():
    """The benchmark re-imports framescale; give later tests back the modules they imported."""
    def ours():
        return [m for m in sys.modules if m == "framescale" or m.startswith("framescale.")]

    saved = {m: sys.modules[m] for m in ours()}
    yield
    for m in ours():
        del sys.modules[m]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run(workload, trace, tmp_path, keep_framescale_modules):
    result, tally, _ = harness.run_workload(workload, 7, 0.0, trace, tmp_path, smoke=True)
    assert result["correct"], tally.wrong
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "degenerate":
        assert result["failed"] > 0
        assert all("no general-position frame" in reason for reason in tally.failures)
    else:
        assert result["failed"] == 0
    assert [p.name for p in tmp_path.iterdir()] == []
