import base64
import csv
import json
import warnings

import numpy as np
import pytest

from framescale import ScalingConvergenceError, cli
from framescale.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from framescale.serialize import read_frame, read_report


def stderr_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def repaired_report(tmp_path, fmt: str):
    ext = "csv" if fmt == "csv" else "json"
    frame_path = tmp_path / f"frame.{ext}"
    report_path = tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "4",
                 "--n", "3d", "--eps", "1e-2", "--format", fmt]) == EXIT_OK
    assert main(["repair", "--input", str(frame_path), "--output", str(report_path),
                 "--seed", "3", "--format", fmt]) == EXIT_OK
    return report_path


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_generate_repair_audit_round_trip(tmp_path, fmt):
    report_path = repaired_report(tmp_path, fmt)
    sibling = report_path.with_name(f"report.frame.{fmt}")
    np.testing.assert_array_equal(
        read_frame(sibling).vectors, read_report(report_path).output_frame.vectors
    )
    audit_path = tmp_path / "audit.json"
    assert main(["audit", "--input", str(report_path), "--output", str(audit_path)]) == EXIT_OK
    payload = json.loads(audit_path.read_text())
    assert payload["verdict_matches_stored"]
    assert payload["stored_certified"]


def test_audit_rejects_tampered_output(tmp_path, capsys):
    report_path = repaired_report(tmp_path, "json")
    data = json.loads(report_path.read_text())
    vectors = np.array(data["frames"]["output"]["vectors"])
    vectors[0] *= 1.5
    data["frames"]["output"]["vectors"] = vectors.tolist()
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["audit", "--input", str(report_path), "--output", str(tmp_path / "a.json")])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"


def set_stored_t0(report_path, value: float) -> None:
    """Overwrite t_0 in the packed ``scaling.t`` of a stored report."""
    data = json.loads(report_path.read_text())
    t = np.frombuffer(base64.b64decode(data["scaling"]["t"]), dtype="<f8").copy()
    t[0] = value
    data["scaling"]["t"] = base64.b64encode(t.tobytes()).decode("ascii")
    report_path.write_text(json.dumps(data))


@pytest.mark.parametrize("damage", ["no_budget", "not_an_object", "seed_beyond_64_bits", "nan_t"])
def test_malformed_report_is_config_error(tmp_path, capsys, damage):
    report_path = repaired_report(tmp_path, "json")
    if damage == "nan_t":
        set_stored_t0(report_path, np.nan)
    data = json.loads(report_path.read_text())
    if damage == "no_budget":
        del data["budget"]
    elif damage == "seed_beyond_64_bits":
        data["seed"] = 2**64 + 1
    elif damage == "not_an_object":
        data = []
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["audit", "--input", str(report_path), "--output", str(tmp_path / "a.json")])
    assert code == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert error["message"].startswith("malformed report:")


def test_overflowing_stored_t_is_uncertified(tmp_path, capsys):
    # e^1000 overflows: the stationarity gap is infinite and the verdict fails, without a warning.
    report_path = repaired_report(tmp_path, "json")
    set_stored_t0(report_path, 1000.0)
    capsys.readouterr()
    audit_path = tmp_path / "audit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["audit", "--input", str(report_path), "--output", str(audit_path)])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"
    payload = json.loads(audit_path.read_text())
    assert not payload["scaling"]["converged"]
    assert not payload["certified"]
    assert payload["stored_certified"]


@pytest.mark.parametrize("seed, code", [(2**64 - 1, EXIT_OK), (2**64, EXIT_CONFIG)])
def test_seed_must_fit_in_64_bits(tmp_path, capsys, seed, code):
    frame_path, report_path = tmp_path / "frame.json", tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "3",
                 "--n", "2d", "--eps", "1e-2"]) == EXIT_OK
    assert main(["repair", "--input", str(frame_path), "--output", str(report_path),
                 "--seed", str(seed)]) == code
    if code == EXIT_CONFIG:
        error = stderr_error(capsys)
        assert error["type"] == "config"
        assert error["message"].startswith("cannot encode report:")
        assert not report_path.exists()
        return
    audit_path = tmp_path / "audit.json"
    assert main(["audit", "--input", str(report_path), "--output", str(audit_path)]) == EXIT_OK
    assert read_report(report_path).seed == seed
    assert json.loads(audit_path.read_text())["seed"] == seed


def test_missing_input_is_config_error(tmp_path, capsys):
    assert main(["analyze"]) == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"
    assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"


def test_solve_rip_reports_blocking_subset(tmp_path, capsys):
    path = tmp_path / "degenerate.csv"
    path.write_text("# frame d=2 n=3\n1,0\n1,0\n0,1\n")
    assert main(["solve-rip", "--input", str(path)]) == EXIT_NO_CONVERGENCE
    error = stderr_error(capsys)
    assert error["type"] == "no_convergence"
    assert error["blocking_subset"] == [0, 1]


def read_bench(path, fmt: str) -> list[dict]:
    if fmt == "json":
        text = path.read_text()
        assert text.startswith("[\n  {\n")
        rows = json.loads(text)
        assert len({tuple(row) for row in rows}) == 1
        return rows
    with path.open(newline="") as handle:
        header, *body = list(csv.reader(handle))
    assert all(len(line) == len(header) for line in body)
    return [dict(zip(header, line), certified=line[header.index("certified")] == "True")
            for line in body]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bench_writes_a_row_per_cell(tmp_path, capsys, fmt):
    # Today the general-position gate rejects the eps = 1e-7 cells; whether
    # or not it does, every cell gets a row and the exit code says so.
    out = tmp_path / f"bench.{fmt}"
    code = main(["bench", "--output", str(out), "--seed", "0", "--d", "4", "--n", "3d",
                 "--eps", "1e-2,1e-7", "--reps", "3", "--format", fmt])
    rows = read_bench(out, fmt)
    assert len(rows) == 6
    assert all(float(row["repair_s"]) > 0 for row in rows)
    assert all(row["certified"] for row in rows[:3])
    assert all(row["certified"] or row["error"] for row in rows)
    assert code == (EXIT_OK if all(row["certified"] for row in rows) else EXIT_CERTIFICATION)


def test_bench_records_non_convergence_and_continues(tmp_path, monkeypatch):
    def diverging(frame, delta, seed, max_iter):
        raise ScalingConvergenceError(
            "no convergence; blocking subset [0, 1]",
            t=np.zeros(frame.n), residual_inf=1.0, iterations=3, blocking_subset=(0, 1),
        )

    monkeypatch.setattr(cli, "repair", diverging)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--output", str(out), "--seed", "0", "--d", "2,3", "--n", "2d",
                 "--eps", "1e-2", "--reps", "1", "--format", "csv"])
    assert code == EXIT_CERTIFICATION
    rows = read_bench(out, "csv")
    assert [row["d"] for row in rows] == ["2", "3"]
    assert all(row["error"] == "no convergence; blocking subset [0, 1]" for row in rows)
    assert all(float(row["repair_s"]) >= 0 for row in rows)
    assert not any(row["certified"] for row in rows)
