"""Span tracer around the package's functions, installed from outside.

The package binds many names at import time (``from .geometry import
is_empty``), so patching a function in its defining module alone misses
most call sites.  ``Tracer.install`` replaces every binding of a traced
function object in every loaded ``polybisim`` module namespace (aliases
included, found by identity) and restores them on ``uninstall``.  Methods
are patched on their class.

Spans are kept in memory as ``[name, start, end, parent, child_time,
nesting]``; a span's self time is its duration minus the time its child
spans cover, and busy time sums only the outermost span of each function
so recursion is not counted twice.  Hot leaf functions get call counts,
never spans.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# Functions that get a span, by module; names are "module.qualname".
SPANS = {
    "lp": ["maximize"],
    "geometry": [
        "is_empty",
        "difference",
        "remove_redundancy",
        "bounding_box",
        "cells_disjoint",
        "complement",
        "preimage_linear",
    ],
    "problem": ["load_problem", "parse_problem"],
    "lyapunov": [
        "verify_contraction",
        "slices",
        "slice_descent_check",
        "sublevel_cell",
    ],
    "abstraction": [
        "initial_partition",
        "find_pre",
        "build_quotient",
        "cell_of",
        "Partition.cell_of",
        "export_quotient",
        "quotient_word",
    ],
    "logic": ["parse_ltl", "to_buchi", "eval_ltl_lasso"],
    "verify": ["product", "f_star", "satisfying_states", "export_satisfying"],
    "simulate": ["simulate", "cross_validate", "sample_states"],
    "svg": ["render_partition_svg", "write_svg"],
    "pipeline": ["run_pipeline"],
}
# Hot leaves: counted only, a span would cost more than the call.
COUNTS = {"geometry": ["contains_point", "Constraint.holds", "apply_matrix"]}
MODULES = tuple(SPANS)


class Tracer:
    """Records spans, call counts and per-call samples while installed."""

    def __init__(self, package):
        self.package = package
        self.enabled = True
        self._saved = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.spans = []
        self.calls = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._depth = Counter()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (result checks, oracles) are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn):
        tracer = self
        clock = time.perf_counter
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack, depth = tracer.spans, tracer._stack, tracer._depth
            tracer.calls[name] += 1
            state = before(tracer, args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, depth[name]]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += rec[2] - rec[1]
            if after:
                after(tracer, state, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        prefix = self.package.__name__ + "."
        for mod in MODULES:  # some are imported lazily by the package
            importlib.import_module(prefix + mod)
        namespaces = [self.package] + [
            m for k, m in sorted(sys.modules.items()) if k.startswith(prefix)
        ]
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for mod, qualnames in table.items():
                module = sys.modules[prefix + mod]
                for qualname in qualnames:
                    *path, attr = qualname.split(".")
                    owner = module
                    for p in path:
                        owner = getattr(owner, p)
                    original = getattr(owner, attr)
                    wrapped = make(f"{mod}.{qualname}", original)
                    if path:  # a method: one binding, on its class
                        self._bind(owner, attr, wrapped)
                        continue
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is original:
                                self._bind(ns, key, wrapped)

    def _bind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict:
        """Calls, busy time and self time per function, and self time per
        module, over everything recorded since the last reset."""
        funcs = {
            name: {"calls": c, "busy_s": 0.0, "self_s": 0.0}
            for name, c in self.calls.items()
        }
        for name, t0, t1, _parent, child, nesting in self.spans:
            f = funcs[name]
            f["self_s"] += t1 - t0 - child
            if nesting == 0:
                f["busy_s"] += t1 - t0
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, f in funcs.items():
            module_self[name.split(".", 1)[0]] += f["self_s"]
        return {"functions": funcs, "module_self_s": module_self}

    def lp_us_p50(self) -> float:
        us = [(t1 - t0) * 1e6 for name, t0, t1, *_ in self.spans if name == "lp.maximize"]
        return statistics.median(us) if us else 0.0

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tself_s\n")
            for i, (name, t0, t1, parent, child, _n) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{t1 - t0 - child:.9f}\n")


# Per-function sample hooks for the ratios and sizes the report needs.
# They run outside the span, so they do not inflate its measured time.
def _lp_after(t, _state, args, result):
    t.samples["lp.rows"].append(len(args[1]))
    t.samples["lp.infeasible"].append(result.status == "infeasible")


def _is_empty_before(t, _args):
    return t.calls["lp.maximize"]


def _is_empty_after(t, lp_before, _args, result):
    t.samples["is_empty.lp"].append(t.calls["lp.maximize"] != lp_before)
    t.samples["is_empty.empty"].append(result)


def _disjoint_before(t, _args):
    return t.calls["geometry.is_empty"]


def _disjoint_after(t, before, _args, result):
    t.samples["disjoint.box_pruned"].append(
        result and t.calls["geometry.is_empty"] == before
    )


def _buchi_after(t, _state, _args, result):
    t.samples["buchi.states"].append(len(result.states))


def _product_after(t, _state, _args, result):
    t.samples["product.states"].append(len(result.states))


def _simulate_after(t, _state, _args, result):
    t.samples["simulate.steps"].append(len(result.points) - 1)


_HOOKS = {
    "lp.maximize": (None, _lp_after),
    "geometry.is_empty": (_is_empty_before, _is_empty_after),
    "geometry.cells_disjoint": (_disjoint_before, _disjoint_after),
    "logic.to_buchi": (None, _buchi_after),
    "verify.product": (None, _product_after),
    "simulate.simulate": (None, _simulate_after),
}
