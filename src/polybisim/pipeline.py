"""End-to-end orchestration: abstract, label, cross-validate, export."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .abstraction import (
    QuotientTS,
    Partition,
    build_quotient,
    export_quotient,
)
from .logic import parse_ltl
from .simulate import cross_validate
from .problem import ProblemSpec
from .verify import SatisfyingSet, export_satisfying, label_quotient

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_INTERNAL = 3


@dataclass
class PipelineResult:
    quotient: QuotientTS
    partition: Partition
    satisfying: Optional[SatisfyingSet]
    report_lines: list[str]
    exit_code: int


def run_pipeline(
    spec: ProblemSpec,
    out_dir: Optional[str] = None,
    samples: Optional[int] = None,
    svg: bool = False,
    seed: int = 0,
) -> PipelineResult:
    if samples is not None and samples < 0:
        raise ValueError(f"samples is negative: {samples}")
    lines: list[str] = []
    t0 = time.perf_counter()

    quotient, partition = build_quotient(
        spec.system, spec.lf, spec.gamma_d, spec.gamma_x, spec.regions
    )
    lines.append(
        f"contraction: certified rho*={float(partition.rho_star):.6f} "
        f"(declared {float(spec.lf.rho):.6f}), "
        f"levels N={len(partition.slice_regions) - 1}"
    )
    lines.append(
        f"quotient: {len(quotient.states)} states "
        f"({time.perf_counter() - t0:.1f}s)"
    )

    formula = None
    satisfying = None
    if spec.formula:
        atoms = {"pid"} | {r.label for r in spec.regions}
        formula = parse_ltl(spec.formula, atoms)
        satisfying = label_quotient(quotient, formula, partition)
        lines.append(
            f"formula: {spec.formula!r} -> "
            f"{len(satisfying.state_ids)} of {len(quotient.states)} "
            "states satisfy"
        )

    n_samples = spec.sample_count if samples is None else samples
    if n_samples > 0:
        report = cross_validate(
            spec.system,
            quotient,
            partition,
            spec.regions,
            formula,
            satisfying.state_ids if satisfying else None,
            n_samples,
            seed,
        )
        lines.append(report.summary())
        if report.mismatches:
            return PipelineResult(
                quotient, partition, satisfying, lines, EXIT_INVARIANT
            )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(
            os.path.join(out_dir, "quotient.txt"), "w", encoding="utf-8"
        ) as fh:
            fh.write(export_quotient(quotient, partition))
        if satisfying is not None:
            with open(
                os.path.join(out_dir, "satisfying.txt"), "w", encoding="utf-8"
            ) as fh:
                fh.write(export_satisfying(satisfying, quotient, partition))
        if svg:
            if spec.n == 2:
                from .svg import add_highlight, render_partition_svg, write_svg

                # the blocks are drawn once, for both files
                text = render_partition_svg(partition)
                write_svg(os.path.join(out_dir, "partition.svg"), text)
                if satisfying is not None:
                    write_svg(
                        os.path.join(out_dir, "satisfying.svg"),
                        add_highlight(text, satisfying.region),
                    )
            else:
                lines.append("svg: skipped, plotting supports n=2 only")
        lines.append(f"outputs written to {out_dir}")

    lines.append(f"total time {time.perf_counter() - t0:.1f}s")
    return PipelineResult(quotient, partition, satisfying, lines, EXIT_OK)
