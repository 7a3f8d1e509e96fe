"""Spans around calls into quandlekit's layers, recorded from outside the
package, and the per-layer metrics derived from them.

Each listed public function is replaced, in every ``quandlekit`` module
namespace that binds it, by a wrapper that records one span per call: name,
start, end, parent span and request id (the index of the CLI call).  Because
the package looks its functions up in module globals, calls from inside the
package are caught too.  A span's self time is its duration minus the time
its wrapped children cover; private callees therefore count toward their
nearest wrapped caller.  ``perm.compose`` runs millions of times per request,
so it is counted, not spanned.

The few observations beyond calls and time (distinct generator tuples,
distinct morphism keys, result sizes) are taken inside the caller's span, so
their cost shows in the caller's self time and in ``trace.overhead_frac``.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

SPANNED = {
    "perm": ["close_group", "find_dihedral_presentation"],
    "quandle": ["inn", "inn_relative", "check_axioms"],
    "homs": ["enumerate_homs", "induced_injective", "induced_surjective", "check_hom", "compose_homs"],
    "grpgen": [
        "compose_star",
        "check_star_morphism",
        "check_surj_morphism",
        "compose_surj",
        "enumerate_surj_morphisms",
        "enumerate_star_morphisms",
    ],
    "functors": [
        "G_inj_mor",
        "G_surj_mor",
        "eta_star",
        "eta_surj",
        "verify_equivalence",
        "to_pair",
        "theta",
    ],
    "cli": ["main"],
}
COUNTED = {"perm": ["compose"]}
# Functions whose results are summed by length, and the metric for the sum.
RESULT_SIZES = {
    "perm.close_group": "perm.close_group.elements",
    "homs.enumerate_homs": "homs.enumerate_homs.results",
    "grpgen.enumerate_surj_morphisms": "grpgen.enumerate_surj_morphisms.results",
    "grpgen.enumerate_star_morphisms": "grpgen.enumerate_star_morphisms.results",
}


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.request = 0
        self.counters: dict[str, itertools.count] = {}
        self.results: dict[str, int] = defaultdict(int)
        self.closure_generators: set[int] = set()
        self.star_check_keys: set[int] = set()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Patch every listed function.  A function that is gone from its
        module raises, so a renamed or moved layer cannot read as 0 calls."""
        modules = [m for name, m in sys.modules.items() if name == "quandlekit" or name.startswith("quandlekit.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for short, funcs in table.items():
                home = sys.modules["quandlekit." + short]
                for fname in funcs:
                    name = "%s.%s" % (short, fname)
                    orig = vars(home).get(fname)
                    if not callable(orig):
                        self.uninstall()
                        raise LookupError("quandlekit.%s is not a function of its module; update perfbench/spans.py" % name)
                    wrapper = make(name, orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._patched.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _counted(self, name: str, fn):
        counter = self.counters[name] = itertools.count()
        nxt = next

        def wrapper(*args, **kwargs):
            nxt(counter)
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)

        return wrapper

    def _spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        span_name, span_parent, span_request = self.span_name, self.span_parent, self.span_request
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns
        observe = {
            "perm.close_group": self._observe_closure,
            "grpgen.check_star_morphism": self._observe_star_check,
        }.get(name)
        count_results = name in RESULT_SIZES
        results = self.results

        def wrapper(*args, **kwargs):
            if observe is not None and args:
                args = observe(args)
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_request.append(self.request)
            span_end.append(0)
            stack.append(sid)
            span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if count_results:
                results[name] += len(out)
            return out

        return wrapper

    def _observe_closure(self, args):
        # The generators may arrive as a one-shot iterable; hand the callee
        # the tuple that was recorded.
        gens = tuple(tuple(g) for g in args[0])
        self.closure_generators.add(hash(gens))
        return (gens,) + args[1:]

    def _observe_star_check(self, args):
        self.star_check_keys.add(hash(args[0].key()))
        return args

    # ------------------------------------------------------------ results

    def write_spans(self, path: Path) -> None:
        """One line per span: id, name, parent, request, start and end in ns."""
        with path.open("w") as fh:
            fh.write("id\tname\tparent\trequest\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    "%d\t%s\t%d\t%d\t%d\t%d\n"
                    % (
                        sid,
                        self.names[self.span_name[sid]],
                        self.span_parent[sid],
                        self.span_request[sid],
                        self.span_start[sid],
                        self.span_end[sid],
                    )
                )

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Calls and self time per spanned function, plus the extra counters."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_ns = list(duration)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_ns[parent] -= duration[i]
        calls = defaultdict(int)
        self_total = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_total[name] += self_ns[i]
        out: dict[str, float] = {}
        for short, funcs in SPANNED.items():
            for fname in funcs:
                name = "%s.%s" % (short, fname)
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = self_total[name] / 1e9
        for name, counter in self.counters.items():
            out[name + ".calls"] = next(counter)
        for name, metric in RESULT_SIZES.items():
            out[metric] = self.results[name]
        closures = calls["perm.close_group"]
        star_checks = calls["grpgen.check_star_morphism"]
        out["perm.close_group.distinct_ratio"] = len(self.closure_generators) / closures if closures else 0.0
        out["grpgen.check_star_morphism.distinct_ratio"] = (
            len(self.star_check_keys) / star_checks if star_checks else 0.0
        )
        out["cli.output_bytes"] = output_bytes
        return out
