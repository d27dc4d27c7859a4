"""Command-line interface.

Subcommands: generate, analyze, repair, polytope, solve-rip, audit, bench.
Exit codes: 0 success, 1 certification failure, 2 parse/config error,
3 solver non-convergence. Errors are reported as JSON on stderr. Set
FRAMESCALE_LOG=debug|info|... for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .frames import frame_metrics, generate_enpf, perturb_frame
from .polytope import MAX_POLYTOPE_N, basis_polytope_membership, uniform_coefficients
from .repair import audit_lemma_chain, repair, reverify
from .scaling import DEFAULT_MAX_ITER, ScalingConvergenceError, solve_radial_isotropic
from .seeding import derive_seed
from .serialize import (
    encode_json,
    metrics_to_dict,
    read_frame,
    read_report,
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved arguments for one subcommand invocation."""

    command: str
    input: Path | None = None
    output: Path | None = None
    d: tuple[int, ...] = ()
    n: tuple[str, ...] = ()
    eps: tuple[float, ...] = ()
    delta: float = _DEFAULT_DELTA
    seed: int = 0
    max_iter: int = DEFAULT_MAX_ITER
    format: str = "json"
    reps: int = 1


def _emit(payload: dict, output: Path | None) -> None:
    data = encode_json(payload, "output")
    if output is None:
        sys.stdout.write(data.decode())
    else:
        output.write_bytes(data)


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


def _cmd_generate(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValueError("generate requires --output")
    (d,), (n_spec,) = cfg.d, cfg.n
    frame = generate_enpf(d, _resolve_n(n_spec, d), cfg.seed)
    if cfg.eps and cfg.eps[0] > 0:
        frame = perturb_frame(frame, cfg.eps[0], cfg.seed)
    write_frame(cfg.output, frame, cfg.format)
    log.info("wrote frame d=%d n=%d to %s", frame.d, frame.n, cfg.output)
    return EXIT_OK


def _cmd_analyze(cfg: RunConfig) -> int:
    frame = read_frame(cfg.input)
    metrics = frame_metrics(frame)
    _emit({"d": frame.d, "n": frame.n, **metrics_to_dict(metrics)}, cfg.output)
    return EXIT_OK


def _frame_sibling(report_path: Path, fmt: str) -> Path:
    suffix = ".frame.csv" if fmt == "csv" else ".frame.json"
    return report_path.with_name(report_path.stem + suffix)


def _cmd_repair(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValueError("repair requires --output")
    frame = read_frame(cfg.input)
    report = repair(frame, cfg.delta, cfg.seed, max_iter=cfg.max_iter)
    audit = audit_lemma_chain(report)
    write_report(cfg.output, report, audit)
    frame_path = _frame_sibling(cfg.output, cfg.format)
    write_frame(frame_path, report.output_frame, cfg.format)
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


def _cmd_polytope(cfg: RunConfig) -> int:
    frame = read_frame(cfg.input)
    violation = basis_polytope_membership(frame, uniform_coefficients(frame.d, frame.n))
    _emit(
        {
            "in_polytope": violation is None,
            "violating_subset": None if violation is None else list(violation),
        },
        cfg.output,
    )
    return EXIT_OK


def _cmd_solve_rip(cfg: RunConfig) -> int:
    frame = read_frame(cfg.input)
    c = uniform_coefficients(frame.d, frame.n)
    solution = solve_radial_isotropic(frame, c, cfg.delta, max_iter=cfg.max_iter)
    _emit(scaling_to_dict(solution, frame.d), cfg.output)
    return EXIT_OK


def _cmd_audit(cfg: RunConfig) -> int:
    stored = read_report(cfg.input)
    fresh = reverify(stored)
    audit = audit_lemma_chain(fresh)
    payload = report_to_dict(fresh, audit)
    payload["stored_certified"] = stored.certified
    payload["verdict_matches_stored"] = fresh.certified == stored.certified
    _emit(payload, cfg.output)
    if not (fresh.certified and audit.passed):
        _error(
            "certification",
            "re-verification failed",
            certified=fresh.certified,
            audit_passed=audit.passed,
        )
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_bench(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValueError("bench requires --output")
    if cfg.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {cfg.reps}")
    if not (cfg.d and cfg.n and cfg.eps):
        raise ValueError("--d, --n and --eps must each list at least one value")
    rows = []
    failures = 0
    cell = 0
    for d, n_spec, eps_target in product(cfg.d, cfg.n, cfg.eps):
        n = _resolve_n(n_spec, d)
        for rep in range(cfg.reps):
            seed = derive_seed(cfg.seed, 4, cell, rep)
            frame = perturb_frame(generate_enpf(d, n, seed), eps_target, seed)
            start = time.perf_counter()
            try:
                report = repair(frame, cfg.delta, seed, max_iter=cfg.max_iter)
                error = ""
            except RuntimeError as exc:
                # A cell that cannot be repaired (a ScalingConvergenceError
                # included) becomes a failed row; the rest of the grid still runs.
                log.warning("bench cell d=%d n=%d eps=%g seed=%d failed: %s",
                            d, n, eps_target, seed, exc)
                report, error = None, str(exc)
            repair_s = time.perf_counter() - start
            ok = report is not None
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "eps_target": eps_target,
                    "eps": report.eps if ok else None,
                    "delta": cfg.delta,
                    "seed": seed,
                    "dist_sq": report.dist_sq_vw if ok else None,
                    "bound": report.bound if ok else None,
                    "ratio": report.dist_sq_vw / report.bound if ok else None,
                    "iterations": report.scaling.iterations if ok else None,
                    "repair_s": repair_s,
                    "certified": ok and report.certified,
                    "error": error,
                }
            )
            failures += 0 if rows[-1]["certified"] else 1
        cell += 1
    if cfg.format == "csv":
        # csv quotes the error messages, which may hold commas, and writes None as "".
        with cfg.output.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(
                    format(v, ".17g") if isinstance(v, float) else v for v in row.values()
                )
    else:
        cfg.output.write_bytes(encode_json(rows, "bench rows", indent=True))
    log.info("bench wrote %d rows to %s (%d failures)", len(rows), cfg.output, failures)
    if failures:
        _error("certification", f"{failures} of {len(rows)} bench rows failed or were not certified")
        return EXIT_CERTIFICATION
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "repair": _cmd_repair,
    "polytope": _cmd_polytope,
    "solve-rip": _cmd_solve_rip,
    "audit": _cmd_audit,
    "bench": _cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framescale",
        description="Equal norm Parseval frame repair via radial isotropic scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **needs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
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
        if needs.get("format"):
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("generate", "write an exact or eps-nearly equal norm Parseval frame",
            output_required=True, seed=True, format=True)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--n", required=True)
    p.add_argument("--eps", type=float, default=0.0)

    add("analyze", "measure frame nearness metrics", input=True, output=True)

    add("repair", "repair a frame and write the certified report",
        input=True, output_required=True, seed=True, delta=True, max_iter=True, format=True)

    add("polytope", "exact basis polytope membership of uniform coefficients, "
        f"by subset enumeration (n <= {MAX_POLYTOPE_N})", input=True, output=True)

    add("solve-rip", "compute the radial isotropic scaling of a frame",
        input=True, output=True, delta=True, max_iter=True)

    add("audit", "re-verify a stored repair report from its frames alone",
        input=True, output=True)

    p = add("bench", "sweep a (d, n, eps) grid of repairs and tabulate ratios",
            output_required=True, seed=True, delta=True, max_iter=True, format=True)
    p.add_argument("--d", default="2,4")
    p.add_argument("--n", default="2d+1,3d")
    p.add_argument("--eps", default="1e-2,1e-3")
    p.add_argument("--reps", type=int, default=3)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    def split(value, cast):
        if value is None:
            return ()
        if isinstance(value, (int, float)):
            return (cast(value),)
        return tuple(cast(part.strip()) for part in str(value).split(",") if part.strip())

    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        d=split(getattr(args, "d", None), int),
        n=split(getattr(args, "n", None), str),
        eps=split(getattr(args, "eps", None), float),
        delta=getattr(args, "delta", _DEFAULT_DELTA),
        seed=getattr(args, "seed", 0),
        max_iter=getattr(args, "max_iter", DEFAULT_MAX_ITER),
        format=getattr(args, "format", "json"),
        reps=getattr(args, "reps", 1),
    )


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    if cfg.delta <= 0:
        raise ValueError("--delta must be positive")
    if cfg.input is not None and not cfg.input.exists():
        raise ValueError(f"input file not found: {cfg.input}")
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FRAMESCALE_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        _error("config", "argument parsing failed")
        return EXIT_CONFIG
    try:
        return run(_config_from_args(args))
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
