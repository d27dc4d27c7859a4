"""File formats: frames as JSON or CSV, reports and solver output as JSON.

Frames carry an explicit (d, n) header in both formats and preserve vector
order. Floats are written so that reading them back reproduces the exact
double (JSON holds the shortest round-trip representation, CSV prints 17
significant digits); round-trips are bit-faithful.

``orjson`` is the JSON codec. It prints floats with Ryu's shortest
round-trip algorithm and parses them back exactly, in under a tenth of a
microsecond per float where the stdlib codec takes about a microsecond.
Its output is standard JSON: stdlib ``json`` reads it, and files written
by stdlib ``json`` read back the same. JSON is written compact, on one
line with a final newline. Integers must fit in 64 bits; a payload that
cannot be encoded raises ValueError. Reports are written in schema
``framescale/2``: the input and perturbed frames, ``scaling.t`` and
``scaling.A`` are base64 strings of little-endian, C-order float64, with
shapes (n, d), (n, d), (n,) and (d, d) taken from the ``d``/``n`` fields
beside them. The output frame stays a nested float list, which the
benchmark's tamper check edits as a list, and standalone frame files
keep nested lists. ``read_report`` also loads ``framescale/1`` reports,
where every array is a nested list, and whitespace is part of neither
schema. A report stores no isotropy residual; it reads back as ``None``,
and ``reverify`` recomputes it from the frames. A non-finite entry of
``scaling.t`` or ``scaling.A`` makes a report malformed in either schema.
"""

from __future__ import annotations

import base64
import math
import re
from pathlib import Path

import numpy as np
import orjson

from .frames import Frame, FrameMetrics
from .repair import AuditRecord, PerturbationBudget, RepairReport
from .scaling import ScalingSolution

REPORT_SCHEMA = "framescale/2"
_SCHEMA_V1 = "framescale/1"

_CSV_HEADER = re.compile(r"#\s*frame\s+d=(\d+)\s+n=(\d+)\s*$")


def encode_json(payload, what: str, indent: bool = False) -> bytes:
    """``payload`` as JSON bytes with a final newline; ValueError if it cannot be encoded."""
    option = orjson.OPT_APPEND_NEWLINE | (orjson.OPT_INDENT_2 if indent else 0)
    try:
        return orjson.dumps(payload, option=option)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot encode {what}: {exc}") from exc


def _load_json(path: str | Path):
    try:
        return orjson.loads(Path(path).read_bytes())
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _pack(array: np.ndarray) -> str:
    """Base64 of the array's little-endian, C-order float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def _unpack(text: str, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Inverse of ``_pack``: a float64 array of ``shape``, or ValueError naming ``field``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"malformed report: {field} is not base64: {exc}") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(
            f"malformed report: {field} holds {len(raw)} bytes, expected {expected} for shape {shape}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def frame_to_dict(frame: Frame) -> dict:
    return {"d": frame.d, "n": frame.n, "vectors": frame.vectors.tolist()}


def frame_from_dict(data: dict) -> Frame:
    try:
        d, n, vectors = int(data["d"]), int(data["n"]), data["vectors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed frame object: {exc}") from exc
    frame = Frame(np.array(vectors, dtype=float))
    if frame.d != d or frame.n != n:
        raise ValueError(
            f"frame header (d={d}, n={n}) disagrees with vectors ({frame.d}, {frame.n})"
        )
    return frame


def _packed_frame_to_dict(frame: Frame) -> dict:
    return {"d": frame.d, "n": frame.n, "vectors": _pack(frame.vectors)}


def _packed_frame_from_dict(data: dict, field: str) -> Frame:
    d, n = int(data["d"]), int(data["n"])
    return Frame(_unpack(data["vectors"], (n, d), field))


def write_frame_json(path: str | Path, frame: Frame) -> None:
    Path(path).write_bytes(encode_json(frame_to_dict(frame), "frame"))


def read_frame_json(path: str | Path) -> Frame:
    return frame_from_dict(_load_json(path))


def write_frame_csv(path: str | Path, frame: Frame) -> None:
    lines = [f"# frame d={frame.d} n={frame.n}"]
    for row in frame.vectors:
        lines.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_frame_csv(path: str | Path) -> Frame:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty frame file")
    header = _CSV_HEADER.match(lines[0])
    if header is None:
        raise ValueError(f"{path}: missing '# frame d=<d> n=<n>' header")
    d, n = int(header.group(1)), int(header.group(2))
    rows = [[float(cell) for cell in ln.split(",")] for ln in lines[1:]]
    frame = Frame(np.array(rows, dtype=float))
    if frame.d != d or frame.n != n:
        raise ValueError(f"{path}: header (d={d}, n={n}) disagrees with rows ({frame.d}, {frame.n})")
    return frame


def write_frame(path: str | Path, frame: Frame, fmt: str = "json") -> None:
    if fmt == "json":
        write_frame_json(path, frame)
    elif fmt == "csv":
        write_frame_csv(path, frame)
    else:
        raise ValueError(f"unknown frame format {fmt!r}")


def read_frame(path: str | Path) -> Frame:
    """Load a frame, dispatching on extension (.csv) with JSON fallback."""
    if str(path).endswith(".csv"):
        return read_frame_csv(path)
    return read_frame_json(path)


def metrics_to_dict(metrics: FrameMetrics) -> dict:
    return {"eps_op": metrics.eps_op, "eps_norm": metrics.eps_norm, "eps": metrics.eps}


def scaling_to_dict(solution: ScalingSolution, d: int) -> dict:
    """The solver's output with ``t`` and ``A`` as flat float lists, as ``solve-rip`` prints it."""
    return _scaling_to_dict(solution, d, lambda a: a.reshape(-1).tolist())


def _scaling_to_dict(solution: ScalingSolution, d: int, encode=_pack) -> dict:
    return {
        "d": d,
        "t": encode(solution.t),
        "A": encode(solution.A),
        "residual_inf": solution.residual_inf,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "stationarity_gap": solution.stationarity_gap,
    }


def _scaling_from_dict(data: dict, n: int, packed: bool) -> ScalingSolution:
    d = int(data["d"])
    if packed:
        t = _unpack(data["t"], (n,), "scaling.t")
        A = _unpack(data["A"], (d, d), "scaling.A")
    else:
        t = np.array(data["t"], dtype=float)
        A = np.array(data["A"], dtype=float).reshape(d, d)
    for name, array in (("t", t), ("A", A)):
        if not np.isfinite(array).all():
            raise ValueError(f"malformed report: scaling.{name} holds a non-finite value")
    return ScalingSolution(
        t=t,
        A=A,
        residual=None,
        residual_inf=float(data["residual_inf"]),
        iterations=int(data["iterations"]),
        converged=bool(data["converged"]),
        stationarity_gap=float(data.get("stationarity_gap", 0.0)),
    )


def audit_to_dict(audit: AuditRecord) -> dict:
    return {
        "passed": audit.passed,
        "checks": [
            {
                "name": c.name,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "slack": c.slack,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in audit.checks
        ],
    }


def report_to_dict(report: RepairReport, audit: AuditRecord | None = None) -> dict:
    data = {
        "schema": REPORT_SCHEMA,
        "d": report.d,
        "n": report.n,
        "seed": report.seed,
        "delta": report.delta,
        "delta_solver": report.delta_solver,
        "eps": report.eps,
        "eps_op": report.eps_op,
        "eps_norm": report.eps_norm,
        "frames": {
            "input": _packed_frame_to_dict(report.input_frame),
            "perturbed": _packed_frame_to_dict(report.perturbed_frame),
            "output": frame_to_dict(report.output_frame),
        },
        "distances": {
            "vw": report.dist_sq_vw,
            "vu": report.dist_sq_vu,
            "uw": report.dist_sq_uw,
        },
        "bound": report.bound,
        "budget": {
            "eta_max": report.budget.eta_max,
            "gamma": report.budget.gamma,
            "gamma_prime": report.budget.gamma_prime,
            "gamma_prime_effective": report.gamma_prime_effective,
        },
        "scaling": _scaling_to_dict(report.scaling, report.d),
        "output_eps": report.output_eps,
        "certified": report.certified,
    }
    if audit is not None:
        data["audit"] = audit_to_dict(audit)
    return data


def report_from_dict(data: dict) -> RepairReport:
    """Rebuild a report from a ``framescale/2`` or ``framescale/1`` dict.

    A missing key or a value of the wrong type raises ValueError.
    """
    try:
        return _report_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def _report_from_dict(data: dict) -> RepairReport:
    schema = data.get("schema")
    if schema not in (REPORT_SCHEMA, _SCHEMA_V1):
        raise ValueError(f"unsupported report schema {schema!r}")
    packed = schema == REPORT_SCHEMA
    frames = data["frames"]
    budget = data["budget"]
    seed = data["seed"]
    if not isinstance(seed, int):  # orjson reads an integer beyond 64 bits as a float
        raise ValueError(f"malformed report: seed {seed!r} is not a 64-bit integer")
    if packed:
        input_frame = _packed_frame_from_dict(frames["input"], "frames.input.vectors")
        perturbed_frame = _packed_frame_from_dict(frames["perturbed"], "frames.perturbed.vectors")
    else:
        input_frame = frame_from_dict(frames["input"])
        perturbed_frame = frame_from_dict(frames["perturbed"])
    return RepairReport(
        input_frame=input_frame,
        perturbed_frame=perturbed_frame,
        output_frame=frame_from_dict(frames["output"]),
        eps=float(data["eps"]),
        eps_op=float(data["eps_op"]),
        eps_norm=float(data["eps_norm"]),
        dist_sq_vw=float(data["distances"]["vw"]),
        dist_sq_vu=float(data["distances"]["vu"]),
        dist_sq_uw=float(data["distances"]["uw"]),
        bound=float(data["bound"]),
        budget=PerturbationBudget(
            eta_max=float(budget["eta_max"]),
            gamma=float(budget["gamma"]),
            gamma_prime=float(budget["gamma_prime"]),
        ),
        gamma_prime_effective=float(budget["gamma_prime_effective"]),
        scaling=_scaling_from_dict(data["scaling"], int(data["n"]), packed),
        delta=float(data["delta"]),
        delta_solver=float(data["delta_solver"]),
        seed=seed,
        output_eps=float(data["output_eps"]),
        certified=bool(data["certified"]),
    )


def write_report(path: str | Path, report: RepairReport, audit: AuditRecord | None = None) -> None:
    Path(path).write_bytes(encode_json(report_to_dict(report, audit), "report"))


def read_report(path: str | Path) -> RepairReport:
    return report_from_dict(_load_json(path))
