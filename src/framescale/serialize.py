"""File formats: frames as JSON or CSV, reports and solver output as JSON.

The file name picks a frame file's format: a path ending in .csv is CSV,
and any other path is JSON. Frames carry an explicit (d, n) header in both
formats and preserve vector order. Floats are written so that reading them
back reproduces the exact double (JSON holds the shortest round-trip
representation, CSV prints 17 significant digits); round-trips are
bit-faithful.

``orjson`` is the JSON codec. It prints floats with Ryu's shortest
round-trip algorithm and parses them back exactly, in under a tenth of a
microsecond per float where the stdlib codec takes about a microsecond.
Its output is standard JSON: stdlib ``json`` reads it, and files written
by stdlib ``json`` read back the same. JSON is written compact, on one
line with a final newline. Integers must fit in 64 bits; a payload that
cannot be encoded raises ValueError. Reports are written in schema
``framescale/3``: the input and perturbed frames, ``scaling.t`` and
``scaling.A`` are base64 strings of little-endian, C-order float64, with
shapes (n, d), (n, d), (n,) and (d, d) taken from the ``d``/``n`` fields
beside them. The output frame stays a nested float list, which the
benchmark's tamper check edits as a list, and standalone frame files
keep nested lists. ``write_report`` encodes the output frame straight
from its float64 array; orjson prints each element exactly as it prints
the float, so the bytes equal those of the nested-list form that
``report_to_dict`` returns. A report holds no perturbation budget: the
top-level ``gamma_prime_effective`` is eps_norm of the perturbed frame,
written for human readers, and ``read_report`` ignores it, since the
report measures it from the frame. ``read_report`` also loads
``framescale/2`` reports, which are ``/3`` plus a ``budget`` block, and
``framescale/1`` reports, where in addition every array is a nested list;
it ignores their ``budget`` blocks. Whitespace is part of no schema. A
report stores the largest isotropy residual entry, not the matrix J;
``reverify`` recomputes it from the frames. A report in any schema is
malformed when ``scaling.t`` or ``scaling.A`` holds a non-finite entry,
when ``delta`` or ``delta_solver`` is not positive and finite, or when
``d`` or ``n`` disagrees with the input frame. An infinite
``scaling.residual_inf`` or ``scaling.stationarity_gap`` is written as
``null`` and reads back as inf.
"""

from __future__ import annotations

import base64
import math
import re
from pathlib import Path

import numpy as np
import orjson

from .frames import Frame, FrameMetrics
from .repair import AuditRecord, RepairReport
from .scaling import ScalingSolution

REPORT_SCHEMA = "framescale/3"
_SCHEMA_V2 = "framescale/2"
_SCHEMA_V1 = "framescale/1"

_CSV_HEADER = re.compile(r"#\s*frame\s+d=(\d+)\s+n=(\d+)\s*$")


def encode_json(payload, what: str, indent: bool = False) -> bytes:
    """``payload`` as JSON bytes with a final newline; ValueError if it cannot be encoded."""
    option = orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    option |= orjson.OPT_INDENT_2 if indent else 0
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
        d, n = int(data["d"]), int(data["n"])
        vectors = np.array(data["vectors"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed frame object: {exc}") from exc
    frame = Frame(vectors)
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


def write_frame(path: str | Path, frame: Frame) -> None:
    """Write a frame as CSV when ``path`` ends in .csv, and as JSON otherwise."""
    if not str(path).endswith(".csv"):
        Path(path).write_bytes(encode_json(frame_to_dict(frame), "frame"))
        return
    lines = [f"# frame d={frame.d} n={frame.n}"]
    for row in frame.vectors:
        lines.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_frame(path: str | Path) -> Frame:
    """Read a frame as CSV when ``path`` ends in .csv, and as JSON otherwise."""
    if not str(path).endswith(".csv"):
        return frame_from_dict(_load_json(path))
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


def metrics_to_dict(metrics: FrameMetrics) -> dict:
    return {"eps_op": metrics.eps_op, "eps_norm": metrics.eps_norm, "eps": metrics.eps}


def scaling_to_dict(solution: ScalingSolution) -> dict:
    """The solver's output with ``t`` and ``A`` as flat float lists, as ``solve-rip`` prints it."""
    return _scaling_to_dict(solution, lambda a: a.reshape(-1).tolist())


def _scaling_to_dict(solution: ScalingSolution, encode=_pack) -> dict:
    return {
        "d": solution.A.shape[0],
        "t": encode(solution.t),
        "A": encode(solution.A),
        "residual_inf": solution.residual_inf,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "stationarity_gap": solution.stationarity_gap,
    }


def _float_or_inf(value) -> float:
    """A stored float; JSON ``null``, which is how an infinite value is written, reads as inf."""
    return math.inf if value is None else float(value)


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
        residual_inf=_float_or_inf(data["residual_inf"]),
        iterations=int(data["iterations"]),
        converged=bool(data["converged"]),
        stationarity_gap=_float_or_inf(data.get("stationarity_gap", 0.0)),
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
    """The report as a dict of plain JSON values, the output frame as a nested float list."""
    return _report_to_dict(report, audit, np.ndarray.tolist)


def _report_to_dict(report: RepairReport, audit: AuditRecord | None, encode_output) -> dict:
    output = report.output_frame
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
            "output": {"d": output.d, "n": output.n, "vectors": encode_output(output.vectors)},
        },
        "distances": {
            "vw": report.dist_sq_vw,
            "vu": report.dist_sq_vu,
            "uw": report.dist_sq_uw,
        },
        "bound": report.bound,
        "scaling": _scaling_to_dict(report.scaling),
        "output_eps": report.output_eps,
        "certified": report.certified,
        "gamma_prime_effective": report.gamma_prime_effective,
    }
    if audit is not None:
        data["audit"] = audit_to_dict(audit)
    return data


def report_from_dict(data: dict) -> RepairReport:
    """Rebuild a report from a ``framescale/3``, ``/2`` or ``/1`` dict.

    A missing key or a value of the wrong type raises ValueError.
    """
    try:
        return _report_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def _report_from_dict(data: dict) -> RepairReport:
    schema = data.get("schema")
    if schema not in (REPORT_SCHEMA, _SCHEMA_V2, _SCHEMA_V1):
        raise ValueError(f"unsupported report schema {schema!r}")
    packed = schema != _SCHEMA_V1
    frames = data["frames"]
    seed = data["seed"]
    if not isinstance(seed, int):  # orjson reads an integer beyond 64 bits as a float
        raise ValueError(f"malformed report: seed {seed!r} is not a 64-bit integer")
    if packed:
        input_frame = _packed_frame_from_dict(frames["input"], "frames.input.vectors")
        perturbed_frame = _packed_frame_from_dict(frames["perturbed"], "frames.perturbed.vectors")
    else:
        input_frame = frame_from_dict(frames["input"])
        perturbed_frame = frame_from_dict(frames["perturbed"])
    for name in ("delta", "delta_solver"):
        if not 0.0 < float(data[name]) < math.inf:
            raise ValueError(f"malformed report: {name} {data[name]!r} is not positive and finite")
    if (data["d"], data["n"]) != (input_frame.d, input_frame.n):
        raise ValueError(f"malformed report: d={data['d']}, n={data['n']} disagree with the input")
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
        scaling=_scaling_from_dict(data["scaling"], int(data["n"]), packed),
        delta=float(data["delta"]),
        delta_solver=float(data["delta_solver"]),
        seed=seed,
        output_eps=float(data["output_eps"]),
        certified=bool(data["certified"]),
    )


def write_report(path: str | Path, report: RepairReport, audit: AuditRecord | None = None) -> None:
    # orjson encodes only C-contiguous arrays; a Frame keeps the order it was built with.
    data = _report_to_dict(report, audit, np.ascontiguousarray)
    Path(path).write_bytes(encode_json(data, "report"))


def read_report(path: str | Path) -> RepairReport:
    return report_from_dict(_load_json(path))
