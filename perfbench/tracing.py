"""Spans around the calls into each layer of fthresh, taken from outside it.

Each entry point is wrapped at the module binding its callers go through.
``nu``, ``testideal`` and ``special`` each hold their own binding of
``root_of_product`` or ``try_div``, so the binding a call passes tells which
layer made it.  Modules are reached through ``importlib.import_module``:
the package attribute ``fthresh.nu`` is the function, not the submodule.

A span is ``[name, start, end, parent, call]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``call`` the index of the workload
call that caused it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter


def _try_div_hits(counts, name, args, result):
    counts[f"{name}.hits"] += result is not None


def _root_step_gens(counts, name, args, result):
    counts[f"{name}.gens_in"] += len(args[0].generators)
    counts[f"{name}.gens_out"] += len(result.generators)


def _buchberger_sizes(counts, name, args, result):
    counts[f"{name}.gens_in"] += len(args[0])
    counts[f"{name}.basis_out"] += len(result)


# (module, attribute, metric name, counter); a counter adds the extra counts
# of one call, from its arguments and result
ENTRY_POINTS = [
    ("fthresh.fptdriver", "fpt", "fptdriver.fpt", None),
    ("fthresh.fptdriver", "compare_fpt", "fptdriver.compare_fpt", None),
    ("fthresh.fptdriver", "special_fpt_at_origin", "fptdriver.special", None),
    ("fthresh.fptdriver", "special_fpt_global", "fptdriver.special", None),
    ("fthresh.fptdriver", "nu", "fptdriver.nu", None),
    ("fthresh.fptdriver", "f_signature_value", "fptdriver.f_signature_value", None),
    ("fthresh.nu", "nu", "nu.nu", None),
    ("fthresh.nu", "_special_threshold", "nu.special", None),
    ("fthresh.nu", "root_of_product", "nu.root_of_product", None),
    ("fthresh.nu", "frobenius_root", "nu.frobenius_root", None),
    ("fthresh.nu", "generalized_frobenius_power", "nu.generalized_frobenius_power", None),
    ("fthresh.testideal", "test_ideal", "testideal.test_ideal", None),
    ("fthresh.testideal", "test_ideal_minus_epsilon", "testideal.test_ideal_minus_epsilon", None),
    ("fthresh.testideal", "root_of_product", "testideal.root_of_product", None),
    ("fthresh.special", "extract_linear_factors", "special.extract_linear_factors", None),
    ("fthresh.special", "squarefree_factors", "special.squarefree_factors", None),
    ("fthresh.special", "is_simple_normal_crossing", "special.is_simple_normal_crossing", None),
    ("fthresh.special", "try_div", "special.try_div", _try_div_hits),
    ("fthresh.frobenius", "frobenius_root_step", "frobenius.frobenius_root_step", _root_step_gens),
    ("fthresh.groebner", "buchberger", "groebner.buchberger", _buchberger_sizes),
    ("fthresh.groebner", "normal_form", "groebner.normal_form", None),
    ("fthresh.groebner", "Ideal.power", "groebner.Ideal.power", None),
    ("fthresh.groebner", "Ideal.is_contained_in", "groebner.Ideal.is_contained_in", None),
    ("fthresh.parsing", "parse_polynomial", "parsing.parse_polynomial", None),
]

EXTRA_COUNTS = {
    "special.try_div": ("hits",),
    "frobenius.frobenius_root_step": ("gens_in", "gens_out"),
    "groebner.buchberger": ("gens_in", "basis_out"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call = -1

    def wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point; one that no longer exists is reported and
        left at zero."""
        for module_name, attr, name, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found; {name} stays 0", file=sys.stderr)
                continue
            setattr(owner, leaf, self.wrap(name, fn, counter))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of calls, total_s and self_s for every entry point,
        and of the extra counts.

        total_s counts a span only when no enclosing span has the same name,
        so recursion is not counted twice; self_s is a span's duration less
        the durations of its direct children.
        """
        names = sorted({name for _, _, name, _ in ENTRY_POINTS})
        calls = Counter()
        total = dict.fromkeys(names, 0.0)
        self_time = dict.fromkeys(names, 0.0)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, _call) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total[name] += end - start
        out = {}
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (self_time[name], "s")
            for extra in EXTRA_COUNTS.get(name, ()):
                out[f"{name}.{extra}"] = (self.counts[f"{name}.{extra}"], "count")
        return out

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
