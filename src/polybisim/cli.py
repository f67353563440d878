"""Command line front end.

Subcommands:
  abstract   build the quotient only and export it
  verify     full pipeline: quotient, formula check, cross-validation
  check-lf   certify the contraction rate of the supplied function
  simulate   run one exact trajectory from a given initial state

Exit codes: 0 success (``--help`` too), 1 input error (a malformed
command line or problem file), 2 invariant violation (an uncertified
contraction rate or a failed cross-validation), 3 internal error (a broken
internal invariant, raised as ``InternalError``, or any other unexpected
exception).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .lyapunov import (
    ContractionError,
    certified_rate,
    level_sequence,
    verify_contraction,
)
from .pipeline import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_OK,
    run_pipeline,
)
from .problem import ProblemError, load_problem
from .simulate import simulate as run_simulation


def _build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"negative count: {text}")
        return value

    def rational(text: str) -> Fraction:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator: {text}") from None

    parser = argparse.ArgumentParser(
        prog="polybisim",
        description=(
            "Abstract a stable discrete-time linear system into a finite "
            "bisimulation quotient and verify LTL formulas over polytopic "
            "regions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to the JSON problem file")
        p.add_argument("--out-dir", default=None, help="directory for exports")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p_abs = sub.add_parser("abstract", help="build the quotient only")
    common(p_abs)
    p_abs.add_argument("--svg", action="store_true", help="write SVG plots")

    p_ver = sub.add_parser("verify", help="run the full pipeline")
    common(p_ver)
    p_ver.add_argument("--svg", action="store_true", help="write SVG plots")
    p_ver.add_argument(
        "--samples",
        type=count,
        default=None,
        help="cross-validation sample count (overrides the problem file)",
    )

    p_chk = sub.add_parser("check-lf", help="certify the contraction rate")
    p_chk.add_argument("problem", help="path to the JSON problem file")

    p_sim = sub.add_parser("simulate", help="run one exact trajectory")
    p_sim.add_argument("problem", help="path to the JSON problem file")
    p_sim.add_argument(
        "x0",
        nargs="+",
        type=rational,
        help="initial state coordinates (decimals or fractions)",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        spec = load_problem(args.problem)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "check-lf":
            rho_star = verify_contraction(spec.lf, spec.system)
            ok = rho_star <= spec.lf.rho
            print(
                f"rho* = {rho_star} (~{float(rho_star):.6f}); "
                f"declared rho = {spec.lf.rho}; "
                f"{'certified' if ok else 'NOT certified at declared rate'}"
            )
            return EXIT_OK if ok else EXIT_INVARIANT

        if args.command == "simulate":
            # the step bound below holds only for a certified rate
            seq = level_sequence(spec.gamma_d, spec.gamma_x, spec.lf.rho)
            certified_rate(spec.lf, spec.system, seq)
            r = spec.regions
            traj = run_simulation(
                spec.system, r.x_cell, r.d_cell, r, args.x0, seq.n_steps + 1
            )
            for x, obs in zip(traj.points, traj.word):
                coords = ", ".join(f"{float(c):.6f}" for c in x)
                print(f"({coords})  obs={obs.label}")
            print(f"target set reached after {len(traj.points) - 1} steps")
            return EXIT_OK

        if args.command == "abstract":
            spec = _without_formula(spec)
        result = run_pipeline(
            spec,
            out_dir=args.out_dir,
            samples=getattr(args, "samples", None),
            svg=getattr(args, "svg", False),
            seed=args.seed,
        )
        for line in result.report_lines:
            print(line)
        return result.exit_code
    except (ProblemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:  # InternalError: a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _without_formula(spec):
    from dataclasses import replace

    return replace(spec, formula=None, sample_count=0)


if __name__ == "__main__":
    raise SystemExit(main())
