"""polybisim benchmark: one command, three workloads, exact checks.

    python3 perfbench/run.py --workload verify|queries \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from --seed by
``gen.py`` and reach the package only as problem-file JSON through
``load_problem``.  Each workload generates a seeded set of inputs,
sets up (only package calls are timed), then runs its inputs round-robin
in a closed loop (one client, one process, one thread) until one more
operation of the mean length would end after --seconds, at least
MIN_ROUNDS full rounds.  An input's latency is the median over its
repeats (see README.md for why).  Every answer is checked exactly; a
failed check counts against ``failed`` and makes the command exit
non-zero.

--trace 0 prints the end-to-end metrics.  --trace 1 repeats a short fixed
pass (the first few inputs) untraced for half of
--seconds, then traced (at least twice) for the other half, and prints the
per-layer metrics.  All traced passes must make exactly the same calls,
and so must every traced run of the same workload and seed on the same
source (the counts are kept in .run/, keyed by a digest of the package
and benchmark sources, so a change to either starts afresh).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  See README.md for the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

_clock = time.perf_counter
MIN_ROUNDS = 2  # an untraced run repeats every input at least this often
SETUP_REPEATS = 2  # each set-up unit is timed this often, on fresh inputs
# Base problems come from a fixed sequence per workload, the same for every
# seed; the seed draws their coordinates, formulas, points and sample seeds.
CORPUS_SEED = "perfbench-corpus-"


class CheckFailed(Exception):
    """A result that differs from the exact expected answer."""


# ---------------------------------------------------------------------------
# Workloads.  setup() generates the inputs untimed, then times its set-up
# units (package calls only) and returns their durations.  op(k) runs
# input k (0 <= k < inputs) on fresh objects and returns (seconds inside
# the package, work units, parts), where parts are (kind, seconds) pairs
# of sub-requests timed on their own.  Checks run outside the timed spans,
# with the tracer paused.
# ---------------------------------------------------------------------------


def timed_repeats(unit):
    """SETUP_REPEATS timings of unit(), each on fresh objects, and the
    result of the last call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        result = unit()
        times.append(_clock() - t0)
    return times, result


def seeded_problem(corpus, rng, formula_depth=2, **shape):
    """The next base problem of `corpus` (the same sequence for every
    seed), in coordinates and with a formula drawn from `rng` (the seed)."""
    doc = gen.symmetric_variant(rng, gen.make_problem(corpus, **shape))
    names = [r["name"] for r in doc["regions"]]
    doc["formula"] = gen.random_formula(rng, names, formula_depth)
    return doc


def write_problem(workdir, name, doc):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class VerifyWorkload:
    """load_problem + run_pipeline with cross-validation, exports and SVG:
    the calls ``polybisim verify --out-dir DIR --svg`` makes."""

    name = "verify"
    inputs = 4  # distinct problems, each repeated about ten times a run
    trace_ops = 2

    def __init__(self, pb, seed, workdir, tracer):
        self.pb, self.seed, self.workdir, self.tracer = pb, seed, workdir, tracer
        self.out_dir = os.path.join(workdir, "out")

    def setup(self):
        """Set-up unit: load_problem of one problem file (parsing and the
        region validation LPs), what a user waits for before the run."""
        corpus, rng = random.Random(CORPUS_SEED + self.name), random.Random(self.seed)
        self.paths = [
            write_problem(self.workdir, f"verify-{k}", seeded_problem(
                corpus, rng, n=2, l_count=3, region_count=2, slice_count=1,
                sample_count=40,
            ))
            for k in range(self.inputs)
        ]
        times = []
        for path in self.paths:
            times += timed_repeats(lambda: self.pb.load_problem(path))[0]
        return times

    def op(self, k):
        # the check below must see this operation's exports only
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = _clock()
        spec = self.pb.load_problem(self.paths[k])
        result = self.pb.run_pipeline(spec, out_dir=self.out_dir, svg=True, seed=self.seed + k)
        elapsed = _clock() - t0
        lines = "\n".join(result.report_lines)
        if result.exit_code != 0:
            raise CheckFailed(f"verify item {k}: exit code {result.exit_code}: {lines}")
        if ", 0 mismatches" not in lines:
            raise CheckFailed(f"verify item {k}: cross-validation mismatch: {lines}")
        for name in ("quotient.txt", "satisfying.txt", "partition.svg", "satisfying.svg"):
            if not os.path.getsize(os.path.join(self.out_dir, name)):
                raise CheckFailed(f"verify item {k}: empty export {name}")
        return elapsed, len(result.quotient.states), ()

    def blocks(self, record):
        """Quotient blocks built (and cross-validated)."""
        return int(sum(record.work.values()))


class QueriesWorkload:
    """Requests against quotients built during set-up.  One operation is a
    request: one LTL formula query and the initial-state queries that ask
    the same formula about given points."""

    name = "queries"
    quotients = 2
    # Per quotient, the problem's own formula first.  Automaton size has a
    # long tail (about one random formula in 1300 makes a Buchi automaton
    # of more than 200 states, against a median of about 4), so a run
    # draws on many distinct formulas rather than a few.
    formulas = 1000
    points = 400  # per quotient; point queries cost about the same
    points_per_formula = 4
    trace_ops = 30

    def __init__(self, pb, seed, workdir, tracer):
        self.pb, self.seed, self.workdir, self.tracer = pb, seed, workdir, tracer
        self.oracle = {}

    @property
    def inputs(self):
        return self.quotients * self.formulas

    def setup(self):
        """Set-up unit: load, build, satisfying set of the problem's own
        formula and warm point location, for one quotient."""
        corpus, rng = random.Random(CORPUS_SEED + self.name), random.Random(self.seed)
        inputs = []
        for k in range(self.quotients):
            doc = seeded_problem(
                corpus, rng, formula_depth=3, n=2, l_count=4, region_count=2, slice_count=2
            )
            path = write_problem(self.workdir, f"queries-{k}", doc)
            # Formula shapes come from the corpus too (automaton size has
            # a long tail, and a seed that drew one more huge automaton
            # would read as a slower program); the seed renames the atoms
            # and orders the requests.
            names = [r["name"] for r in doc["regions"]]
            atoms = names + ["pid"]
            mapping = dict(zip(atoms, rng.sample(atoms, len(atoms))))
            texts = [
                gen.rename_atoms(gen.random_formula(corpus, names, corpus.randint(1, 3)), mapping)
                for _ in range(self.formulas - 1)
            ]
            rng.shuffle(texts)
            texts.insert(0, doc["formula"])
            points = gen.random_points(rng, doc, self.points)
            inputs.append((path, texts, points))
        self.served, times = [], []
        for path, texts, points in inputs:
            elapsed, served = timed_repeats(lambda: self._serve(path))
            times += elapsed
            served.update(texts=texts, points=points)
            self.served.append(served)
        return times

    def _serve(self, path):
        pb = self.pb
        spec = pb.load_problem(path)
        quotient, partition = pb.build_quotient(
            spec.system, spec.lf, spec.gamma_d, spec.gamma_x, spec.regions
        )
        atoms = {"pid"} | {r.label for r in spec.regions}
        formula = pb.parse_ltl(spec.formula, atoms)
        prod = pb.product(quotient, pb.to_buchi(formula))
        satisfying = pb.satisfying_states(prod, pb.f_star(prod)).state_ids
        # Point location reads each block's bounding box; a serving
        # process has them all computed before the first request.
        for b in partition.ordered_blocks():
            if pb.cell_of(partition, pb.sample_point(b.cell)) != b.id:
                raise CheckFailed(f"cell_of misplaces the sample point of block {b.id}")
        return {
            "spec": spec, "quotient": quotient, "partition": partition,
            "atoms": atoms, "max_steps": len(partition.slice_regions) + 1,
        }

    def op(self, k):
        q, f = k % self.quotients, k // self.quotients
        served = self.served[q]
        t_formula, formula, sat = self._formula_query(q, served, served["texts"][f])
        parts = [("formula", t_formula)]
        for j in range(f * self.points_per_formula, (f + 1) * self.points_per_formula):
            x = served["points"][j % self.points]
            parts.append(("point", self._point_query(served, formula, sat, x)))
        return sum(t for _kind, t in parts), len(parts), parts

    def blocks(self, _record):
        """Blocks of the quotients being served."""
        return sum(len(s["quotient"].states) for s in self.served)

    def _formula_query(self, q, served, text):
        pb = self.pb
        t0 = _clock()
        formula = pb.parse_ltl(text, served["atoms"])
        prod = pb.product(served["quotient"], pb.to_buchi(formula))
        sat = pb.satisfying_states(prod, pb.f_star(prod), served["partition"])
        elapsed = _clock() - t0
        with self.tracer.paused():
            if (q, text) not in self.oracle:
                self.oracle[q, text] = self._oracle(served["quotient"], formula)
        if sat.state_ids != self.oracle[q, text]:
            raise CheckFailed(f"formula {text!r}: satisfying set differs from the oracle")
        return elapsed, formula, sat.state_ids

    def _oracle(self, quotient, formula):
        """Per-state semantics: evaluate the formula on each state's word."""
        pb = self.pb
        out = set()
        for s in quotient.states:
            word = pb.quotient_word(quotient, s)
            lasso = pb.LassoWord(
                tuple(o.letter() for o in word[:-1]), (word[-1].letter(),)
            )
            if pb.eval_ltl_lasso(formula, lasso):
                out.add(s)
        return frozenset(out)

    def _point_query(self, served, formula, satisfying, x):
        """Does the run from x satisfy the formula?  Answered from the
        quotient, then confirmed by exact simulation."""
        pb, spec, part = self.pb, served["spec"], served["partition"]
        t0 = _clock()
        block = pb.cell_of(part, x)
        verdict = block in satisfying
        traj = pb.simulate(
            spec.system, part.x_cell, part.d_cell, spec.regions, x, served["max_steps"]
        )
        confirmed = pb.eval_ltl_lasso(formula, traj.lasso())
        elapsed = _clock() - t0
        with self.tracer.paused():
            word = pb.quotient_word(served["quotient"], block)
        if confirmed != verdict or traj.word != word:
            raise CheckFailed(f"point {x}: quotient and exact simulation disagree")
        return elapsed


WORKLOADS = {w.name: w for w in (VerifyWorkload, QueriesWorkload)}


# ---------------------------------------------------------------------------
# Running operations and reporting
# ---------------------------------------------------------------------------


class Record:
    """Per input: the times of its repeats, its work, and the times of its
    sub-requests.  Times are kept in arrays, so the peak memory the run
    reports barely grows with the number of repeats, and so with the
    machine's speed."""

    def __init__(self):
        self.seconds = {}  # input -> array of seconds, one per repeat
        self.work = {}  # input -> work units
        self.parts = {}  # input -> [(kind, array of seconds), ...]

    def append(self, k, seconds, work, parts):
        self.seconds.setdefault(k, array("d")).append(seconds)
        self.work[k] = work
        slots = self.parts.setdefault(k, [(kind, array("d")) for kind, _t in parts])
        for (_kind, times), (_k, t) in zip(slots, parts):
            times.append(t)

    def medians(self):
        """Each input's median time over its repeats."""
        return [statistics.median(v) for v in self.seconds.values()]

    def part_medians(self):
        """kind -> each sub-request's median time over its repeats."""
        out = {}
        for slots in self.parts.values():
            for kind, times in slots:
                out.setdefault(kind, []).append(statistics.median(times))
        return out


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []

    def run_op(self, i, record):
        k = i % self.wl.inputs
        self.attempted += 1
        try:
            result = self.wl.op(k)
        except Exception as exc:  # every failure is counted and reported
            self.failures.append(f"op {i} (input {k}): {type(exc).__name__}: {exc}")
            return
        record.append(k, *result)

    def stream(self, seconds):
        """Operations 0, 1, 2, ... on inputs 0, 1, ..., inputs - 1 in turn,
        until one more of the mean length would end after `seconds`; at
        least MIN_ROUNDS full rounds."""
        record = Record()
        start = _clock()
        i = 0
        while True:
            self.run_op(i, record)
            i += 1
            elapsed = _clock() - start
            if i >= MIN_ROUNDS * self.wl.inputs and elapsed * (i + 1) / i > seconds:
                return record

    def passes(self, seconds, at_least=1, snapshot=dict):
        """Repeats of one fixed pass, inputs 0 .. trace_ops - 1: at least
        `at_least`, then more while one more pass of the mean length still
        ends within `seconds`.  Returns (seconds, record, snapshot()) per
        pass, the snapshot taken when the pass ends."""
        out = []
        start = _clock()
        while True:
            record = Record()
            t0 = _clock()
            for i in range(self.wl.trace_ops):
                self.run_op(i, record)
            out.append((_clock() - t0, record, snapshot()))
            elapsed = _clock() - start
            if len(out) >= at_least and elapsed * (len(out) + 1) / len(out) > seconds:
                return out


def _pct(values, q):
    """Percentile by linear interpolation (q in 0..100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, record, peak_rss_mb):
    medians = record.medians()
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "op_ms_p50": _metric(statistics.median(medians) * 1e3, "ms"),
        "work_per_s": _metric(sum(record.work.values()) / sum(medians), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _latency_lines(name, seconds):
    """Median and each percentile with at least ten samples beyond it."""
    ms = sorted(t * 1e3 for t in seconds)
    pcts = [p for p in (50, 90, 99) if len(ms) * (100 - p) / 100 >= 10 or p == 50]
    return [f"  {name}_ms_p{p} (n={len(ms)})  {_pct(ms, p):.4f} ms" for p in pcts]


def report_lines(wl, runner, setup_times, record):
    """Human-readable lines, including the per-workload names of the
    metrics (verify_s, formula_ms_p50, ...)."""
    medians = record.medians()
    n = len(medians)
    ops = sum(len(v) for v in record.seconds.values())
    lines = [
        f"workload {wl.name}: {ops} ops completed on {n} inputs "
        f"(latencies below are each input's median over its repeats), "
        f"{len(runner.failures)} failed of {runner.attempted} attempted",
        f"  setup_s (median of {len(setup_times)})  {statistics.median(setup_times):.4f} s",
        f"  failed_frac  {len(runner.failures) / max(1, runner.attempted):.4f}",
    ]
    if wl.name == "verify":
        total = sum(medians)
        lines.append(f"  {wl.name}_s (batch of {n} problems)  {total:.4f} s")
        lines.append(f"  {wl.name}_blocks_per_s  {wl.blocks(record) / total:.4f} 1/s")
    lines += _latency_lines("op", medians)
    for kind, seconds in sorted(record.part_medians().items()):
        lines += _latency_lines(kind, seconds)
    return lines


def per_layer(tracer, passes, traced_s, untraced_s, blocks):
    """Per-layer metrics per traced pass (counts and times averaged)."""
    s = tracer.summary()
    f = s["functions"]
    n = passes
    samples = tracer.samples

    def fn(name, key):
        return f.get(name, {}).get(key, 0) / n

    def mean(key):
        v = samples.get(key, [])
        return statistics.fmean(v) if v else 0.0

    m = {
        "lp.calls": (fn("lp.maximize", "calls"), "count"),
        "lp.busy_s": (fn("lp.maximize", "busy_s"), "s"),
        "lp.us_per_call_p50": (tracer.lp_us_p50(), "us"),
        "lp.rows_mean": (mean("lp.rows"), "rows"),
        "lp.infeasible_frac": (mean("lp.infeasible"), "ratio"),
        "geometry.is_empty.calls": (fn("geometry.is_empty", "calls"), "count"),
        "geometry.is_empty.lp_frac": (mean("is_empty.lp"), "ratio"),
        "geometry.is_empty.empty_frac": (mean("is_empty.empty"), "ratio"),
        "geometry.cells_disjoint.calls": (fn("geometry.cells_disjoint", "calls"), "count"),
        "geometry.box_prune_frac": (mean("disjoint.box_pruned"), "ratio"),
        "geometry.difference.calls": (fn("geometry.difference", "calls"), "count"),
        "geometry.difference.busy_s": (fn("geometry.difference", "busy_s"), "s"),
        "geometry.remove_redundancy.calls": (fn("geometry.remove_redundancy", "calls"), "count"),
        "geometry.remove_redundancy.busy_s": (fn("geometry.remove_redundancy", "busy_s"), "s"),
        "geometry.bounding_box.busy_s": (fn("geometry.bounding_box", "busy_s"), "s"),
        "geometry.contains_point.calls": (fn("geometry.contains_point", "calls"), "count"),
        "geometry.constraint_holds.calls": (fn("geometry.Constraint.holds", "calls"), "count"),
        "geometry.apply_matrix.calls": (fn("geometry.apply_matrix", "calls"), "count"),
        "problem.load_problem.busy_s": (fn("problem.load_problem", "busy_s"), "s"),
        "lyapunov.verify_contraction.busy_s": (fn("lyapunov.verify_contraction", "busy_s"), "s"),
        "lyapunov.slices.busy_s": (fn("lyapunov.slices", "busy_s"), "s"),
        "abstraction.initial_partition.busy_s": (fn("abstraction.initial_partition", "busy_s"), "s"),
        "abstraction.find_pre.calls": (fn("abstraction.find_pre", "calls"), "count"),
        "abstraction.find_pre.busy_s": (fn("abstraction.find_pre", "busy_s"), "s"),
        "abstraction.build_quotient.self_s": (fn("abstraction.build_quotient", "self_s"), "s"),
        "abstraction.blocks": (blocks, "count"),
        "abstraction.cell_of.busy_s": (fn("abstraction.cell_of", "busy_s"), "s"),
        "abstraction.export_quotient.busy_s": (fn("abstraction.export_quotient", "busy_s"), "s"),
        "svg.render_partition_svg.busy_s": (fn("svg.render_partition_svg", "busy_s"), "s"),
        "logic.parse_ltl.busy_s": (fn("logic.parse_ltl", "busy_s"), "s"),
        "logic.to_buchi.busy_s": (fn("logic.to_buchi", "busy_s"), "s"),
        "logic.buchi_states_mean": (mean("buchi.states"), "states"),
        "logic.eval_ltl_lasso.busy_s": (fn("logic.eval_ltl_lasso", "busy_s"), "s"),
        "verify.product.busy_s": (fn("verify.product", "busy_s"), "s"),
        "verify.product_states_mean": (mean("product.states"), "states"),
        "verify.f_star.busy_s": (fn("verify.f_star", "busy_s"), "s"),
        "verify.satisfying_states.busy_s": (fn("verify.satisfying_states", "busy_s"), "s"),
        "simulate.simulate.calls": (fn("simulate.simulate", "calls"), "count"),
        "simulate.simulate.busy_s": (fn("simulate.simulate", "busy_s"), "s"),
        "simulate.steps_mean": (mean("simulate.steps"), "steps"),
        "simulate.cross_validate.busy_s": (fn("simulate.cross_validate", "busy_s"), "s"),
        "pipeline.run_pipeline.busy_s": (fn("pipeline.run_pipeline", "busy_s"), "s"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (s["module_self_s"][mod] / n, "s")
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def traced_run(runner, tracer, seconds):
    """Untraced passes for half the time, then traced passes (at least two)
    for the other half.  Every traced pass must make exactly the same
    calls and see the same blocks."""
    untraced = runner.passes(seconds / 2)
    tracer.install()
    try:
        traced = runner.passes(seconds / 2, 2, snapshot=lambda: Counter(tracer.calls))
    finally:
        tracer.uninstall()
    per_pass = []
    previous = Counter()
    for _s, record, calls in traced:
        per_pass.append(
            {"calls": dict(sorted((calls - previous).items())),
             "blocks": runner.wl.blocks(record)}
        )
        previous = calls
    if any(p != per_pass[0] for p in per_pass):
        runner.failures.append("traced passes differ in call counts or blocks")
    untraced_s = statistics.fmean(p[0] for p in untraced)
    traced_s = statistics.fmean(p[0] for p in traced)
    return len(traced), traced_s, untraced_s, per_pass[0]


def source_digest():
    """Digest of the package and benchmark sources."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "polybisim"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_counts_file(runner, name, seed, counts):
    """Counts must repeat exactly across traced runs of the same workload
    and seed on the same source.  Runs on other sources (an earlier or
    later commit, which may legitimately change the counts) use another
    file and are never compared."""
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"counts-{name}-{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != counts:
            runner.failures.append(
                f"counts {counts} differ from an earlier run of the same source {earlier}"
            )
        return
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(counts, fh)
    os.replace(tmp, path)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polybisim", "__init__.py")):
        sys.exit(f"error: no package source under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import polybisim as pb

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUN_DIR)
    try:
        tracer = Tracer(pb)
        wl = WORKLOADS[args.workload](pb, args.seed, workdir, tracer)
        runner = Runner(wl)
        setup_times = wl.setup()
        if args.trace:
            n_passes, traced_s, untraced_s, counts = traced_run(runner, tracer, args.seconds)
            check_counts_file(runner, args.workload, args.seed, counts)
            metrics = per_layer(tracer, n_passes, traced_s, untraced_s, counts["blocks"])
            tracer.write_spans(os.path.join(RUN_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
            lines = [
                f"workload {wl.name}: {n_passes} traced passes, "
                f"{len(runner.failures)} failed of {runner.attempted} attempted",
                f"  per pass: {counts['calls'].get('lp.maximize', 0)} LPs, "
                f"{counts['blocks']} blocks",
            ]
        else:
            record = runner.stream(args.seconds)
            # read before the metric computations below allocate
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(setup_times, record, peak_rss_mb)
            lines = report_lines(wl, runner, setup_times, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name}  {m['value']:.6g} {m['unit']}")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
