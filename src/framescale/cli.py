"""Command-line interface.

Subcommands: generate, analyze, repair, polytope, solve-rip, audit.
A frame file is CSV when its name ends in .csv and JSON otherwise. repair
writes the repaired frame beside its report as <report stem>.frame.csv
when the input frame is CSV, and as <report stem>.frame.json otherwise.
Exit codes: 0 success, 1 certification failure, 2 parse/config error,
3 solver non-convergence. Errors are reported as JSON on stderr. Set
FRAMESCALE_LOG=debug|info|... for verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
from pathlib import Path

from .frames import frame_metrics, generate_enpf, perturb_frame
from .polytope import MAX_POLYTOPE_N, basis_polytope_membership
from .repair import audit_lemma_chain, repair
from .scaling import DEFAULT_MAX_ITER, ScalingConvergenceError, solve_radial_isotropic
from .serialize import (
    _load_json,
    _write_file,
    encode_json,
    metrics_to_dict,
    read_frame,
    report_from_dict,
    report_to_dict,
    scaling_to_dict,
    write_frame,
    write_report,
)

log = logging.getLogger("framescale")

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_DEFAULT_DELTA = 1e-9

_N_SPEC = re.compile(r"^(\d*)d(?:([+-])(\d+))?$")


def _emit(payload: dict, output: Path | None) -> None:
    data = encode_json(payload, "output")
    if output is None:
        sys.stdout.write(data.decode())
    else:
        _write_file(output, data)


def _error(kind: str, message: str, **extra) -> None:
    body = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(encode_json(body, "error").decode())


def _resolve_n(spec: str, d: int) -> int:
    if spec.isdigit():
        return int(spec)
    m = _N_SPEC.match(spec)
    if m is None:
        raise ValueError(f"bad n spec {spec!r}; use an integer or forms like 'd+1', '2d', '3d-1'")
    coeff = int(m.group(1)) if m.group(1) else 1
    offset = int(m.group(3) or 0)
    if m.group(2) == "-":
        offset = -offset
    return coeff * d + offset


def _cmd_generate(args: argparse.Namespace) -> int:
    if not args.eps >= 0:
        raise ValueError(f"--eps must be nonnegative, got {args.eps}")
    frame = generate_enpf(args.d, _resolve_n(args.n, args.d), args.seed)
    if args.eps > 0:
        frame = perturb_frame(frame, args.eps, args.seed)
    write_frame(args.output, frame)
    log.info("wrote frame d=%d n=%d to %s", frame.d, frame.n, args.output)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    frame = read_frame(args.input)
    metrics = frame_metrics(frame)
    _emit({"d": frame.d, "n": frame.n, **metrics_to_dict(metrics)}, args.output)
    return EXIT_OK


def _cmd_repair(args: argparse.Namespace) -> int:
    frame = read_frame(args.input)
    report = repair(frame, args.delta, args.seed, max_iter=args.max_iter)
    audit = audit_lemma_chain(report)
    write_report(args.output, report, audit)
    ext = "csv" if str(args.input).endswith(".csv") else "json"
    sibling = args.output.with_name(f"{args.output.stem}.frame.{ext}")
    write_frame(sibling, report.output_frame)
    log.info(
        "repair d=%d n=%d eps=%.3g: dist^2=%.3g bound=%.3g certified=%s",
        report.d, report.n, report.eps, report.dist_sq_vw, report.bound, report.certified,
    )
    if not (report.certified and audit.passed):
        _error(
            "certification",
            "repair completed but certification failed",
            certified=report.certified,
            audit_passed=audit.passed,
        )
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_polytope(args: argparse.Namespace) -> int:
    frame = read_frame(args.input)
    violation = basis_polytope_membership(frame)
    _emit(
        {
            "in_polytope": violation is None,
            "violating_subset": None if violation is None else list(violation),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_solve_rip(args: argparse.Namespace) -> int:
    frame = read_frame(args.input)
    solution = solve_radial_isotropic(frame, args.delta, max_iter=args.max_iter)
    _emit(scaling_to_dict(solution), args.output)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    report = report_from_dict(data)
    audit = audit_lemma_chain(report)
    payload = report_to_dict(report, audit)
    payload["stored_certified"] = data["certified"]
    payload["verdict_matches_stored"] = report.certified == data["certified"]
    _emit(payload, args.output)
    if not (report.certified and audit.passed):
        _error(
            "certification",
            "re-verification failed",
            certified=report.certified,
            audit_passed=audit.passed,
        )
        return EXIT_CERTIFICATION
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "repair": _cmd_repair,
    "polytope": _cmd_polytope,
    "solve-rip": _cmd_solve_rip,
    "audit": _cmd_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Equal norm Parseval frame repair via radial isotropic scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **needs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        if needs.get("input"):
            p.add_argument("--input", required=True, type=Path)
        if needs.get("output_required"):
            p.add_argument("--output", required=True, type=Path)
        elif needs.get("output"):
            p.add_argument("--output", type=Path)
        if needs.get("seed"):
            p.add_argument("--seed", required=True, type=int)
        if needs.get("delta"):
            p.add_argument("--delta", type=float, default=_DEFAULT_DELTA)
        if needs.get("max_iter"):
            p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        return p

    p = add("generate", "write an exact or eps-nearly equal norm Parseval frame, "
            "as CSV when --output ends in .csv and as JSON otherwise",
            output_required=True, seed=True)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--n", required=True)
    p.add_argument("--eps", type=float, default=0.0)

    add("analyze", "measure frame nearness metrics", input=True, output=True)

    add("repair", "repair a frame and write the certified report, with the repaired frame "
        "beside it as <report stem>.frame.csv or .frame.json, in the input frame's format",
        input=True, output_required=True, seed=True, delta=True, max_iter=True)

    add("polytope", "exact basis polytope membership of uniform coefficients, "
        f"by subset enumeration (n <= {MAX_POLYTOPE_N})", input=True, output=True)

    add("solve-rip", "compute the radial isotropic scaling of a frame",
        input=True, output=True, delta=True, max_iter=True)

    add("audit", "re-verify a stored repair report from its frames alone",
        input=True, output=True)

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    if not 0.0 < getattr(args, "delta", _DEFAULT_DELTA) < math.inf:
        raise ValueError("--delta must be positive and finite")
    if getattr(args, "input", None) is not None and not args.input.exists():
        raise ValueError(f"input file not found: {args.input}")
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    level = os.environ.get("FRAMESCALE_LOG", "WARNING").upper()
    # basicConfig skips its own level check once the root logger has handlers.
    if not isinstance(logging.getLevelName(level), int):
        _error("config", f"unknown FRAMESCALE_LOG level {level!r}")
        return EXIT_CONFIG
    logging.basicConfig(level=level)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        _error("config", "argument parsing failed")
        return EXIT_CONFIG
    try:
        return run(args)
    except ScalingConvergenceError as exc:
        _error(
            "no_convergence",
            str(exc),
            blocking_subset=list(exc.blocking_subset) if exc.blocking_subset else None,
            iterations=exc.iterations,
            residual_inf=exc.residual_inf,
        )
        return EXIT_NO_CONVERGENCE
    except (ValueError, RuntimeError, OSError) as exc:
        _error("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
