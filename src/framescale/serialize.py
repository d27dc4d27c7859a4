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
cannot be encoded raises ValueError.

Reports are written in schema ``framescale/4``. The input frame,
``scaling.t`` and ``scaling.A`` are packed: lowercase hex of their
little-endian, C-order float64 bytes, shaped (n, d), (n,) and (d, d) by
the ``d``/``n`` fields beside them; CPython decodes hex about five times
faster than base64. The perturbed frame U is stored, packed, only when it
is not bit-equal to ``renormalize(V, d/n)``, i.e. when the
general-position gate moved it; otherwise ``read_report`` rebuilds it
with that call, bit-equal wherever numpy rounds the row norms as the
writer's did. The output frame stays a nested float list, which the
benchmark's tamper check edits as a list; ``write_report`` encodes it
straight from its array, and orjson prints each element as it prints the
float, so the bytes equal those of ``report_to_dict``'s nested list.

A report is its arrays and run parameters. The numbers derived from
them (eps, eps_op, eps_norm, the three distances, the bound,
``output_eps``, ``certified`` and ``gamma_prime_effective``) are written
for human readers, and ``read_report`` ignores them: the loaded report
measures each from its frames. The scaling's ``residual_inf``,
``stationarity_gap`` and ``converged`` are measured on read as well, by
the solver's convergence test on the stored U, t and A, which reproduces
the solver's numbers bit for bit; a stored A that maps some u_i to zero
raises ValueError. An infinite residual or gap is written as ``null``.

``read_report`` also loads ``framescale/3`` (base64 in place of hex, U
always stored), ``framescale/2`` (``/3`` plus a ``budget`` block, which
is ignored) and ``framescale/1`` (every array a nested list). Whitespace
between tokens is part of no schema; inside a packed field it is damage.
A report is malformed, and ``read_report`` raises a ValueError starting
``malformed report:``, when a packed field does not decode to its shape,
``scaling.t`` or ``scaling.A`` is not finite, ``delta`` or
``delta_solver`` is not positive and finite, ``seed`` or
``scaling.iterations`` is not a non-negative JSON integer, ``certified``
or ``scaling.converged`` is not a JSON boolean, or a stored frame
disagrees with the top-level ``d`` and ``n``.

Every file the package writes goes through one writer, ``_write_file``:
reports, frames, and the CLI's ``--output`` files. It overwrites an
existing file in place and then trims it to the new length; it never
truncates a file to zero first. On ext4, truncating to zero frees the
file's blocks (device discards on a ``discard`` mount) and arms
``auto_da_alloc``, so the following ``close()`` starts writeback. Rewriting
a 4 KB file that way measured 46 us and a 600 KB file 0.27 ms, against 3
and 17 us in place (``BENCH_inplace_write.json``). Only overwrites gain;
a write to a new path costs what it did. A write that fails partway is
trimmed to the bytes it wrote, so the file holds a prefix of the new
content, as it would after an ``O_TRUNC`` open, and never new bytes
followed by old ones. The writer is not atomic: a crash or a concurrent
reader can see a partial file.
"""

from __future__ import annotations

import base64
import binascii
import math
import os
import re
from pathlib import Path

import numpy as np
import orjson

from .frames import Frame, FrameMetrics, _row_sq_norms, _rows_scaled, renormalize
from .repair import AuditRecord, RepairReport
from .scaling import ScalingSolution, _images, _isotropy_test

REPORT_SCHEMA = "framescale/4"
_SCHEMA_V3 = "framescale/3"
_SCHEMA_V2 = "framescale/2"
_SCHEMA_V1 = "framescale/1"

_CSV_HEADER = re.compile(r"#\s*frame\s+d=(\d+)\s+n=(\d+)\s*$")
# A CSV cell: one decimal floating-point literal in ASCII digits, where
# float() would also take "1_0", "nan", "inf" or non-ASCII digits.
_CSV_CELL = re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*")


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


def _write_file(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` in place: overwrite, then trim, never truncate to zero.

    The file is trimmed only when it is still longer than ``data``, so a
    character device or a pipe (``st_size`` 0, as ``os.devnull`` is) is
    never truncated. A write that fails partway trims the file to the bytes
    already written and re-raises.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        view = memoryview(data)
        while written < len(view):
            written += os.write(fd, view[written:])
    finally:
        try:
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _pack(array: np.ndarray) -> str:
    """Lowercase hex of the array's little-endian, C-order float64 bytes."""
    return np.ascontiguousarray(array, dtype="<f8").tobytes().hex()


def _unpack(text: str, shape: tuple[int, ...], field: str, schema: str) -> np.ndarray:
    """A packed float64 array of ``shape``, or ValueError naming ``field``.

    ``framescale/4`` packs in hex, as ``_pack`` does; ``/2`` and ``/3`` in base64.
    """
    codec = "hex" if schema == REPORT_SCHEMA else "base64"
    try:
        if codec == "hex":
            raw = binascii.unhexlify(text)
        else:
            raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"malformed report: {field} is not {codec}: {exc}") from exc
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


def _packed_frame_from_dict(data: dict, field: str, schema: str) -> Frame:
    d, n = int(data["d"]), int(data["n"])
    return Frame(_unpack(data["vectors"], (n, d), field, schema))


def write_frame(path: str | Path, frame: Frame) -> None:
    """Write a frame as CSV when ``path`` ends in .csv, and as JSON otherwise.

    The file is overwritten in place by ``_write_file``. CSV lines end in a
    bare line feed on every platform.
    """
    if not str(path).endswith(".csv"):
        _write_file(path, encode_json(frame_to_dict(frame), "frame"))
        return
    lines = [f"# frame d={frame.d} n={frame.n}"]
    for row in frame.vectors:
        lines.append(",".join(format(v, ".17g") for v in row))
    _write_file(path, ("\n".join(lines) + "\n").encode())


def _require_numbers(data) -> None:
    """ValueError unless every entry of a JSON frame's vectors is a JSON number.

    orjson reads a number as an int or a float, and a string or a boolean as
    neither, where ``np.array(..., dtype=float)`` would take "1" or true as 1.0.
    """
    vectors = data.get("vectors") if isinstance(data, dict) else None
    for row in vectors if isinstance(vectors, list) else ():
        for value in row if isinstance(row, list) else (row,):
            if type(value) not in (int, float):
                raise ValueError(f"malformed frame object: entry {value!r} is not a number")


def read_frame(path: str | Path) -> Frame:
    """Read a frame as CSV when ``path`` ends in .csv, and as JSON otherwise.

    A JSON entry that is not a number, such as "1" or true, is malformed,
    and so is a CSV cell that is not a decimal literal, such as "1_0".
    """
    if not str(path).endswith(".csv"):
        data = _load_json(path)
        _require_numbers(data)
        return frame_from_dict(data)
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty frame file")
    header = _CSV_HEADER.match(lines[0])
    if header is None:
        raise ValueError(f"{path}: missing '# frame d=<d> n=<n>' header")
    d, n = int(header.group(1)), int(header.group(2))
    rows = [[_csv_cell(path, cell) for cell in ln.split(",")] for ln in lines[1:]]
    frame = Frame(np.array(rows, dtype=float))
    if frame.d != d or frame.n != n:
        raise ValueError(f"{path}: header (d={d}, n={n}) disagrees with rows ({frame.d}, {frame.n})")
    return frame


def _csv_cell(path, cell: str) -> float:
    if _CSV_CELL.fullmatch(cell) is None:
        raise ValueError(f"{path}: entry {cell.strip()!r} is not a decimal number")
    return float(cell)


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


def _require_flag(data: dict, key: str, field: str) -> None:
    """ValueError unless the stored flag is a JSON boolean; the string "no", say, is malformed."""
    value = data[key]
    if not isinstance(value, bool):
        raise ValueError(f"malformed report: {field} {value!r} is not a boolean")


def _require_count(data: dict, key: str, field: str) -> int:
    """The stored value, unless it is not a non-negative integer: true, -1 and 2.5 are malformed.

    orjson reads an integer beyond 64 bits as a float, which is refused too.
    """
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"malformed report: {field} {value!r} is not a non-negative integer")
    return value


def _scaling_from_dict(data: dict, U: Frame, schema: str, delta_solver: float) -> ScalingSolution:
    """The stored t, A and iteration count, with the solver's convergence test measured on U."""
    d = int(data["d"])
    if schema != _SCHEMA_V1:
        t = _unpack(data["t"], (U.n,), "scaling.t", schema)
        A = _unpack(data["A"], (d, d), "scaling.A", schema)
    else:
        t = np.array(data["t"], dtype=float)
        A = np.array(data["A"], dtype=float).reshape(d, d)
    for name, array in (("t", t), ("A", A)):
        if not np.isfinite(array).all():
            raise ValueError(f"malformed report: scaling.{name} holds a non-finite value")
    _require_flag(data, "converged", "scaling.converged")
    iterations = _require_count(data, "iterations", "scaling.iterations")
    _, resid, gap, converged = _isotropy_test(_images(U, A), U.d / U.n, t, delta_solver)
    return ScalingSolution(t, A, resid, iterations, converged, gap)


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


def _gate_moved(report: RepairReport) -> bool:
    """Whether U differs in any bit from the renormalize(V, d/n) that ``read_report`` rebuilds.

    renormalize's arithmetic, without the checks and the Frame that would add
    half again to a small ``report_to_dict``. A zero input vector gives a NaN
    row, which no U equals.
    """
    V, U = report.input_frame.vectors, report.perturbed_frame.vectors
    with np.errstate(divide="ignore", invalid="ignore"):
        rebuilt = _rows_scaled(V, _row_sq_norms(V), report.d / report.n)
    return U.shape != rebuilt.shape or U.tobytes() != rebuilt.tobytes()


def _report_to_dict(report: RepairReport, audit: AuditRecord | None, encode_output) -> dict:
    output = report.output_frame
    frames = {"input": _packed_frame_to_dict(report.input_frame)}
    if _gate_moved(report):
        frames["perturbed"] = _packed_frame_to_dict(report.perturbed_frame)
    frames["output"] = {"d": output.d, "n": output.n, "vectors": encode_output(output.vectors)}
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
        "frames": frames,
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
    """Rebuild a report from a ``framescale/4``, ``/3``, ``/2`` or ``/1`` dict.

    Only the arrays, the run parameters and the iteration count are read;
    every derived number is measured. A missing key or a value of the
    wrong type raises ValueError.
    """
    try:
        return _report_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def _frame_from_report(frames: dict, name: str, schema: str) -> Frame:
    if name == "output" or schema == _SCHEMA_V1:
        return frame_from_dict(frames[name])
    return _packed_frame_from_dict(frames[name], f"frames.{name}.vectors", schema)


def _report_from_dict(data: dict) -> RepairReport:
    schema = data.get("schema")
    if schema not in (REPORT_SCHEMA, _SCHEMA_V3, _SCHEMA_V2, _SCHEMA_V1):
        raise ValueError(f"unsupported report schema {schema!r}")
    frames = data["frames"]
    seed = _require_count(data, "seed", "seed")
    for name in ("delta", "delta_solver"):
        if not 0.0 < float(data[name]) < math.inf:
            raise ValueError(f"malformed report: {name} {data[name]!r} is not positive and finite")
    input_frame = _frame_from_report(frames, "input", schema)
    d, n = input_frame.d, input_frame.n
    if (data["d"], data["n"]) != (d, n):
        raise ValueError(f"malformed report: d={data['d']}, n={data['n']} disagree with the input")
    if schema == REPORT_SCHEMA and "perturbed" not in frames:
        try:
            perturbed_frame = renormalize(input_frame, d / n)
        except ValueError as exc:
            raise ValueError(f"malformed report: frames.input: {exc}") from exc
    else:
        perturbed_frame = _frame_from_report(frames, "perturbed", schema)
    output_frame = _frame_from_report(frames, "output", schema)
    for name, frame in (("perturbed", perturbed_frame), ("output", output_frame)):
        if (frame.d, frame.n) != (d, n):
            raise ValueError(
                f"malformed report: frames.{name} has d={frame.d}, n={frame.n}, not d={d}, n={n}"
            )
    # The stored verdict must be well formed, though the report measures its own.
    _require_flag(data, "certified", "certified")
    delta_solver = float(data["delta_solver"])
    return RepairReport(
        input_frame=input_frame,
        perturbed_frame=perturbed_frame,
        output_frame=output_frame,
        scaling=_scaling_from_dict(data["scaling"], perturbed_frame, schema, delta_solver),
        delta=float(data["delta"]),
        delta_solver=delta_solver,
        seed=seed,
    )


def write_report(path: str | Path, report: RepairReport, audit: AuditRecord | None = None) -> None:
    """Write the report, and the audit when given, as one line of ``framescale/4`` JSON.

    The file is overwritten in place by ``_write_file``.
    """
    # orjson encodes only C-contiguous arrays; a Frame keeps the order it was built with.
    data = _report_to_dict(report, audit, np.ascontiguousarray)
    _write_file(path, encode_json(data, "report"))


def read_report(path: str | Path) -> RepairReport:
    return report_from_dict(_load_json(path))
