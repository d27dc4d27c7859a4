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
from helpers import (
    read_packed,
    record_opens,
    run_with_file_size_limit,
    truncating_opens,
    write_packed,
)


def stderr_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def repaired_report(tmp_path, fmt: str):
    ext = "csv" if fmt == "csv" else "json"
    frame_path = tmp_path / f"frame.{ext}"
    report_path = tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "4",
                 "--n", "3d", "--eps", "1e-2"]) == EXIT_OK
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


def test_generate_and_repair_agree_on_a_csv_name(tmp_path):
    # The file name alone picks the format, for the writer and the reader alike.
    frame_path = tmp_path / "f.csv"
    assert main(["generate", "--output", str(frame_path), "--seed", "1", "--d", "3",
                 "--n", "2d", "--eps", "1e-2"]) == EXIT_OK
    assert frame_path.read_text().startswith("# frame d=3 n=6\n")
    assert main(["repair", "--input", str(frame_path), "--output", str(tmp_path / "r.json"),
                 "--seed", "1"]) == EXIT_OK


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


def test_audit_ignores_a_flattering_stored_verdict(tmp_path, capsys):
    # The stored verdict and distances are the file's claims; the audit measures its own.
    report_path = repaired_report(tmp_path, "json")
    data = json.loads(report_path.read_text())
    vectors = np.array(data["frames"]["output"]["vectors"])
    vectors[0] *= 1.5
    data["frames"]["output"]["vectors"] = vectors.tolist()
    data.update(certified=True, output_eps=0.0, distances={"vw": 0.0, "vu": 0.0, "uw": 0.0})
    data["scaling"]["converged"] = True
    report_path.write_text(json.dumps(data))
    audit_path = tmp_path / "a.json"
    capsys.readouterr()
    assert main(["audit", "--input", str(report_path), "--output", str(audit_path)]) == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"
    payload = json.loads(audit_path.read_text())
    assert payload["stored_certified"] is True
    assert payload["certified"] is False
    assert payload["verdict_matches_stored"] is False
    assert payload["distances"]["vw"] > 0.0 and payload["output_eps"] > 0.0


def set_stored_t0(report_path, value: float) -> None:
    """Overwrite t_0 in the packed ``scaling.t`` of a stored report."""
    data = json.loads(report_path.read_text())
    t = read_packed(data["scaling"]["t"])
    t[0] = value
    data["scaling"]["t"] = write_packed(t)
    report_path.write_text(json.dumps(data))


# "field=value" stores a run parameter that repair refuses, a d or n that
# disagrees with the input frame, a verdict that is not a JSON boolean, or
# an iteration count that is not a non-negative integer.
# A stored frame one vector short keeps its own header consistent.
@pytest.mark.parametrize(
    "damage",
    ["not_an_object", "seed_beyond_64_bits", "nan_t",
     "seed=true", "seed=-1", "delta=-1", "delta=0", "delta_solver=-1e-10", "d=3", "n=13",
     "scaling.iterations=true", "scaling.iterations=2.5",
     'certified="no"', "certified=1", "converged_not_bool",
     "output_short", "perturbed_short", "perturbed_wide"],
)
def test_malformed_report_is_config_error(tmp_path, capsys, damage):
    report_path = repaired_report(tmp_path, "json")
    if damage == "nan_t":
        set_stored_t0(report_path, np.nan)
    data = json.loads(report_path.read_text())
    frames = data["frames"]
    if "=" in damage:
        field, value = damage.split("=")
        owner = data["scaling"] if field.startswith("scaling.") else data
        owner[field.removeprefix("scaling.")] = json.loads(value)
    elif damage == "seed_beyond_64_bits":
        data["seed"] = 2**64 + 1
    elif damage == "not_an_object":
        data = []
    elif damage == "converged_not_bool":
        data["scaling"]["converged"] = "true"
    elif damage == "output_short":
        frames["output"]["vectors"].pop()
        frames["output"]["n"] -= 1
    elif damage.startswith("perturbed_"):
        V = read_packed(frames["input"]["vectors"]).reshape(data["n"], data["d"])
        U = V[:-1] if damage == "perturbed_short" else np.hstack([V, V[:, :1]])
        frames["perturbed"] = {"d": U.shape[1], "n": U.shape[0], "vectors": write_packed(U)}
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["audit", "--input", str(report_path), "--output", str(tmp_path / "a.json")])
    assert code == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert error["message"].startswith("malformed report:")


def test_audit_rejects_negated_input(tmp_path, capsys):
    # With U rebuilt from the negated input and W kept, dist^2(V, W) is about 4d,
    # far past the bound 20 eps d^2 that eps(-V) = eps(V) gives.
    report_path = repaired_report(tmp_path, "json")
    data = json.loads(report_path.read_text())
    packed = data["frames"]["input"]
    packed["vectors"] = write_packed(-read_packed(packed["vectors"]))
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["audit", "--input", str(report_path), "--output", str(tmp_path / "a.json")])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"


def test_audit_rejects_input_outside_the_range(tmp_path, capsys):
    # Tripling V leaves U = renormalize(3V, d/n) and the distance checks
    # intact, but eps(3V) is far past 1/2, where the bound does not hold.
    report_path = repaired_report(tmp_path, "json")
    data = json.loads(report_path.read_text())
    packed = data["frames"]["input"]
    packed["vectors"] = write_packed(3 * read_packed(packed["vectors"]))
    report_path.write_text(json.dumps(data))
    audit_path = tmp_path / "a.json"
    capsys.readouterr()
    assert main(["audit", "--input", str(report_path), "--output", str(audit_path)]) == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"
    payload = json.loads(audit_path.read_text())
    assert payload["eps"] >= 0.5
    assert not payload["certified"]
    assert payload["verdict_matches_stored"] is False


@pytest.mark.parametrize("stored", [None, 1e-3, 1e300])
def test_audit_derives_the_budget_from_the_input(tmp_path, capsys, stored):
    # Output vectors rotated by 1e-3 rad fail check (e) whatever gamma' the
    # file claims, at the top level or in a leftover budget block: gamma' is
    # measured from the perturbed frame, and a huge stored value overflows nothing.
    report_path = repaired_report(tmp_path, "json")
    data = json.loads(report_path.read_text())
    measured = data["gamma_prime_effective"]
    vectors = np.array(data["frames"]["output"]["vectors"])
    cos, sin = np.cos(1e-3), np.sin(1e-3)
    vectors[:, :2] = vectors[:, :2] @ np.array([[cos, sin], [-sin, cos]])
    data["frames"]["output"]["vectors"] = vectors.tolist()
    if stored is not None:
        data["gamma_prime_effective"] = stored
        keys = ("eta_max", "gamma", "gamma_prime", "gamma_prime_effective")
        data["budget"] = dict.fromkeys(keys, stored)
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    audit_path = tmp_path / "audit.json"
    code = main(["audit", "--input", str(report_path), "--output", str(audit_path)])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"
    payload = json.loads(audit_path.read_text())
    assert payload["gamma_prime_effective"] == measured
    assert "budget" not in payload
    failed = [check["name"] for check in payload["audit"]["checks"] if not check["passed"]]
    assert "norm_rescaling_distance" in failed


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
    # The infinite gap is stored as JSON null, and the audit's own output reads back.
    assert payload["scaling"]["stationarity_gap"] is None
    capsys.readouterr()
    code = main(["audit", "--input", str(audit_path), "--output", str(tmp_path / "b.json")])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"


def test_singular_stored_A_fails_certification(tmp_path, capsys):
    # A singular A is audited rather than refused: its checks fail and the exit code says so.
    frame_path, report_path = tmp_path / "frame.json", tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "0", "--d", "3",
                 "--n", "7", "--eps", "1e-2"]) == EXIT_OK
    assert main(["repair", "--input", str(frame_path), "--output", str(report_path),
                 "--seed", "0"]) == EXIT_OK
    data = json.loads(report_path.read_text())
    A = read_packed(data["scaling"]["A"]).reshape(3, 3)
    A[-1] = 0.0
    data["scaling"]["A"] = write_packed(A)
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    audit_path = tmp_path / "audit.json"
    code = main(["audit", "--input", str(report_path), "--output", str(audit_path)])
    assert code == EXIT_CERTIFICATION
    assert stderr_error(capsys)["type"] == "certification"
    assert not json.loads(audit_path.read_text())["audit"]["passed"]


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


@pytest.mark.parametrize("eps, code", [("-0.1", EXIT_CONFIG), ("nan", EXIT_CONFIG), ("0", EXIT_OK)])
def test_generate_rejects_a_negative_eps(tmp_path, capsys, eps, code):
    frame_path = tmp_path / "frame.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "3",
                 "--n", "2d", "--eps", eps]) == code
    if code == EXIT_OK:
        assert main(["analyze", "--input", str(frame_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["eps"] < 1e-12
        return
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert "--eps" in error["message"]
    assert not frame_path.exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "0"])
def test_bad_delta_is_config_error(tmp_path, capsys, delta):
    frame_path, report_path = tmp_path / "frame.json", tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "3",
                 "--n", "2d", "--eps", "1e-2"]) == EXIT_OK
    assert main(["repair", "--input", str(frame_path), "--output", str(report_path),
                 "--seed", "3", "--delta", delta]) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert "--delta" in error["message"]
    assert not report_path.exists()


@pytest.mark.parametrize("command", ["analyze", "polytope", "solve-rip", "repair"])
def test_malformed_frame_file_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"d": 2, "n": 3, "vectors": [[1, 0], [0, 1], [{"a": 1}, 1]]}))
    args = [command, "--input", str(path)]
    if command == "repair":
        args += ["--output", str(tmp_path / "report.json"), "--seed", "0"]
    assert main(args) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert error["message"].startswith("malformed frame object: ")


@pytest.mark.parametrize("vectors", [
    '[["1","0"],["0","1"]]',
    "[[true,false],[false,true]]",
    "[[1,true],[0,1]]",
], ids=["strings", "booleans", "one_boolean"])
def test_frame_entry_that_is_not_a_number_is_config_error(tmp_path, capsys, vectors):
    path = tmp_path / "frame.json"
    path.write_text(f'{{"d":2,"n":2,"vectors":{vectors}}}')
    assert main(["analyze", "--input", str(path)]) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert error["message"].startswith("malformed frame object: ")


@pytest.mark.parametrize("cell", ["1_0", "nan", "inf"])
def test_csv_cell_that_is_not_a_decimal_literal_is_config_error(tmp_path, capsys, cell):
    # float() reads "1_0" as 10.0; the frame would load and analyze exit 0.
    path = tmp_path / "frame.csv"
    path.write_text(f"# frame d=2 n=3\n{cell},0\n0,1\n1,1\n")
    assert main(["analyze", "--input", str(path)]) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert error["message"].endswith(f"entry {cell!r} is not a decimal number")


def test_csv_cells_take_every_decimal_literal_form(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("# frame d=2 n=3\n+1.5e-3, -.5\n1.,1E+1\n 0 ,-0\n")
    np.testing.assert_array_equal(read_frame(path).vectors, [[1.5e-3, -0.5], [1.0, 10.0], [0.0, -0.0]])


def test_missing_input_is_config_error(tmp_path, capsys):
    assert main(["analyze"]) == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"
    assert main(["analyze", "--input", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"


def test_solve_rip_reports_blocking_subset(tmp_path, capsys):
    # By default M(t) turns singular and the infinite residual is written as
    # null; stopped after one iteration, the residual is finite. The message
    # leads with the wording of scaling_gradient and scaling_hessian.
    path = tmp_path / "degenerate.csv"
    path.write_text("# frame d=2 n=3\n1,0\n1,0\n0,1\n")
    for extra, residual_inf in (([], None), (["--max-iter", "1"], 1 / 3)):
        assert main(["solve-rip", "--input", str(path), *extra]) == EXIT_NO_CONVERGENCE
        error = stderr_error(capsys)
        assert error["type"] == "no_convergence"
        assert error["blocking_subset"] == [0, 1]
        assert error["residual_inf"] == pytest.approx(residual_inf)
        if not extra:
            assert error["message"].startswith("weighted sum M(t) is singular; ")


def write_csv_frame(path, rows) -> str:
    path.write_text(f"# frame d={len(rows[0])} n={len(rows)}\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    return str(path)


def test_zero_vector_is_config_error(tmp_path, capsys):
    path = write_csv_frame(tmp_path / "frame.csv", [[1, 0], [0, 1], [0, 0], [1, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-rip", "--input", path]) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert "zero vector at index 2" in error["message"]


@pytest.mark.parametrize("level, code", [("bogus", EXIT_CONFIG), ("debug", EXIT_OK)])
def test_log_level_is_checked(tmp_path, capsys, monkeypatch, level, code):
    monkeypatch.setenv("FRAMESCALE_LOG", level)
    path = write_csv_frame(tmp_path / "frame.csv", [[1, 0], [0, 1], [1, 1]])
    assert main(["analyze", "--input", path]) == code
    if code == EXIT_CONFIG:
        error = stderr_error(capsys)
        assert error["type"] == "config"
        assert "FRAMESCALE_LOG" in error["message"]


@pytest.mark.parametrize("rows, expected", [
    ([[1, 0], [0, 1], [1, 1]], {"in_polytope": True, "violating_subset": None}),
    ([[1, 0], [2, 0], [0, 1]], {"in_polytope": False, "violating_subset": [0, 1]}),
], ids=["triple", "parallel"])
def test_polytope_reports_membership(tmp_path, rows, expected):
    path = write_csv_frame(tmp_path / "frame.csv", rows)
    out = tmp_path / "polytope.json"
    assert main(["polytope", "--input", path, "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == expected


@pytest.mark.parametrize("n, extra", [(21, []), (3, ["--alpha", "0.1"])], ids=["n_21", "alpha"])
def test_polytope_refusals_are_config_errors(tmp_path, capsys, n, extra):
    rows = [[1, 0], [0, 1], *[[1, k] for k in range(1, n - 1)]]
    path = write_csv_frame(tmp_path / "frame.csv", rows)
    assert main(["polytope", "--input", path, *extra]) == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"


@pytest.mark.parametrize("command", ["solve-rip", "repair"])
def test_negative_max_iter_is_config_error(tmp_path, capsys, command):
    frame_path, report_path = tmp_path / "frame.json", tmp_path / "report.json"
    assert main(["generate", "--output", str(frame_path), "--seed", "3", "--d", "3",
                 "--n", "7", "--eps", "1e-2"]) == EXIT_OK
    args = [command, "--input", str(frame_path), "--max-iter", "-1"]
    if command == "repair":
        args += ["--output", str(report_path), "--seed", "3"]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    error = stderr_error(capsys)
    assert error["type"] == "config"
    assert "max_iter" in error["message"]
    assert not report_path.exists()


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
                 "--eps", "1e-2,1e-7", "--reps", "3"])
    rows = read_bench(out, fmt)
    assert len(rows) == 6
    assert not any("repair_s" in row for row in rows)
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
                 "--eps", "1e-2", "--reps", "1"])
    assert code == EXIT_CERTIFICATION
    rows = read_bench(out, "csv")
    assert [row["d"] for row in rows] == ["2", "3"]
    assert all(row["error"] == "no convergence; blocking subset [0, 1]" for row in rows)
    assert not any("repair_s" in row for row in rows)
    assert not any(row["certified"] for row in rows)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "grid",
    [["--reps", "0"], ["--reps", "-2"], ["--d", ""], ["--n", ""], ["--eps", ""]],
    ids=["reps_0", "reps_-2", "no_d", "no_n", "no_eps"],
)
def test_bench_rejects_an_empty_grid(tmp_path, capsys, fmt, grid):
    out = tmp_path / f"bench.{fmt}"
    code = main(["bench", "--output", str(out), "--seed", "0", "--d", "2", "--n", "2d",
                 "--eps", "1e-2", "--reps", "1", *grid])
    assert code == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "grid",
    [["--d", "2,4", "--n", "3"], ["--eps", "1e-2,0"], ["--eps", "0.9"], ["--eps", "1e-2,0.5"]],
    ids=["n_not_above_d", "eps_zero", "eps_0.9", "eps_half"],
)
def test_bench_checks_the_whole_grid_before_repairing(tmp_path, capsys, monkeypatch, fmt, grid):
    def no_repair(*args, **kwargs):
        pytest.fail("bench repaired a cell before checking the whole grid")

    monkeypatch.setattr(cli, "repair", no_repair)
    out = tmp_path / f"bench.{fmt}"
    code = main(["bench", "--output", str(out), "--seed", "0", "--d", "2", "--n", "2d",
                 "--eps", "1e-2", "--reps", "1", *grid])
    assert code == EXIT_CONFIG
    assert stderr_error(capsys)["type"] == "config"
    assert not out.exists()


def test_outputs_are_overwritten_without_truncating_on_open(tmp_path, monkeypatch):
    frame = write_csv_frame(tmp_path / "frame.csv", [[1, 0], [0, 1], [1, 1]])
    outputs = [tmp_path / name for name in ("analyze.json", "bench.json", "bench.csv")]
    for path in outputs:
        path.write_bytes(b"x" * 100_000)
    calls = record_opens(monkeypatch)
    assert main(["analyze", "--input", frame, "--output", str(outputs[0])]) == EXIT_OK
    for path in outputs[1:]:
        assert main(["bench", "--output", str(path), "--seed", "0", "--d", "2", "--n", "2d",
                     "--eps", "1e-2", "--reps", "1"]) == EXIT_OK
    assert sum(isinstance(c, int) for c in calls) >= len(outputs)
    assert truncating_opens(calls) == []
    assert json.loads(outputs[0].read_text())["n"] == 3
    assert len(read_bench(outputs[1], "json")) == len(read_bench(outputs[2], "csv")) == 1


def test_report_write_that_fails_partway_exits_2(tmp_path):
    # A (3, 9) report is overwritten by a (3, 7) one under a 1000-byte file
    # size limit: the repair exits 2 and leaves a prefix of the new report.
    pytest.importorskip("resource")
    paths = {}
    for n in (9, 7):
        paths[n] = tmp_path / f"frame{n}.json"
        assert main(["generate", "--output", str(paths[n]), "--seed", "0", "--d", "3",
                     "--n", str(n), "--eps", "1e-2"]) == EXIT_OK
    report, whole = tmp_path / "report.json", tmp_path / "whole.json"
    assert main(["repair", "--input", str(paths[9]), "--output", str(report), "--seed", "0"]) == EXIT_OK
    assert main(["repair", "--input", str(paths[7]), "--output", str(whole), "--seed", "0"]) == EXIT_OK
    assert report.stat().st_size > whole.stat().st_size > 1000
    proc = run_with_file_size_limit(
        1000, "sys.exit(framescale.cli.main(sys.argv[1:]))",
        "repair", "--input", str(paths[7]), "--output", str(report), "--seed", "0",
    )
    assert proc.returncode == EXIT_CONFIG
    assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]["type"] == "config"
    assert report.read_bytes() == whole.read_bytes()[:1000]
