"""Outside-in tracer: wraps public functions of each cgv layer from here.

Nothing under src/cgv changes.  Class methods are patched on their class.
A module function is patched in every cgv module that holds a reference to
it, because `from .geometry import eval_at_point` (tangent) or `from .baselocus
import classify_stratum` (suites) copies the binding, and patching the
defining module alone would miss those callers.  The suite registry
`suites.SUITES` holds its own references and is rebuilt with the wrappers.

Spans live on an in-memory stack.  When a span closes, its duration is
added to its parent's child time, and the (op, parent, name) record gains
one call, its inclusive time and its self time (inclusive minus wrapped
children).  Records are written out once, when the benchmark ends.
"""

from __future__ import annotations

import sys
import time

# (span name, module, class, method names)
METHODS = (
    ("nf.mul", "cgv.nf", "NFElem", ("__mul__", "__rmul__")),
    ("nf.add", "cgv.nf", "NFElem", ("__add__", "__radd__")),
    ("nf.pow", "cgv.nf", "NFElem", ("__pow__",)),
    ("mpoly.mul", "cgv.mpoly", "MPoly", ("__mul__", "__rmul__")),
    ("mpoly.add", "cgv.mpoly", "MPoly", ("__add__", "__radd__")),
    ("mpoly.pow", "cgv.mpoly", "MPoly", ("__pow__",)),
    ("mpoly.substitute", "cgv.mpoly", "MPoly", ("substitute",)),
    ("mpoly.partial", "cgv.mpoly", "MPoly", ("partial",)),
    ("upoly.mul", "cgv.upoly", "UPoly", ("__mul__", "__rmul__")),
)

SUITE_FUNCTIONS = ("sigma", "cubics", "base_locus", "quadric_independence",
                   "tangent", "divisors", "genus", "pencil")

# (span name, defining module, function name)
FUNCTIONS = (
    ("nf.inverse", "cgv.nf", "nf_invert"),
    ("linalg.nf_rref", "cgv.linalg", "nf_rref"),
    ("linalg.matrix_det", "cgv.linalg", "matrix_det"),
    ("linalg.matrix_rank", "cgv.linalg", "matrix_rank"),
    ("linalg.nf_kernel_basis", "cgv.linalg", "nf_kernel_basis"),
    ("upoly.gcd", "cgv.upoly", "upoly_gcd"),
    ("upoly.squarefree_part", "cgv.upoly", "squarefree_part"),
    ("parsing.parse_poly", "cgv.parsing", "parse_poly"),
    ("geometry.build_cubics", "cgv.geometry", "build_cubics"),
    ("geometry.eval_at_point", "cgv.geometry", "eval_at_point"),
    ("baselocus.classify_stratum", "cgv.baselocus", "classify_stratum"),
    ("baselocus.quadric_independence", "cgv.baselocus", "quadric_independence"),
    ("baselocus.single_hyperplane_det_analysis", "cgv.baselocus",
     "single_hyperplane_det_analysis"),
    ("tangent.rank_survey", "cgv.tangent", "rank_survey"),
    ("tangent.chart_gradient", "cgv.tangent", "chart_gradient"),
    ("tangent.pairwise_independence", "cgv.tangent", "pairwise_independence"),
    ("tangent.display_agreement", "cgv.tangent", "display_agreement"),
    ("genus.z4_witness_search", "cgv.genus", "z4_witness_search"),
    ("genus.distinct_points", "cgv.genus", "distinct_points"),
    ("genus.multiplicity_pattern", "cgv.genus", "multiplicity_pattern"),
    ("genus.cubic_one_root_probe", "cgv.genus", "cubic_one_root_probe"),
    ("reportlib.render_text", "cgv.reportlib", "render_text"),
    ("reportlib.render_json", "cgv.reportlib", "render_json"),
) + tuple((f"suites.{s}_suite", "cgv.suites", f"{s}_suite") for s in SUITE_FUNCTIONS) + (
    ("suites.run_suite", "cgv.suites", "run_suite"),
    ("cli.main", "cgv.cli", "main"),
)

SPAN_NAMES = tuple(name for name, *_ in METHODS + FUNCTIONS)
# spans whose inclusive time is reported as well as their self time
INCLUSIVE = tuple(f"suites.{s}_suite" for s in SUITE_FUNCTIONS) + ("suites.run_suite", "cli.main")


def _mul_term_pairs(args, kwargs):
    a, b = args
    other = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
    return len(a.terms) * other


# counts recorded at a span boundary: span name -> (count name, amount)
COUNTERS = {
    "mpoly.mul": ("mpoly.mul.term_pairs", _mul_term_pairs),
    "parsing.parse_poly": ("parsing.chars", lambda args, kwargs: len(args[0])),
    "tangent.rank_survey": ("tangent.rank_survey.points", lambda args, kwargs: args[1]),
}


class Tracer:
    """Records spans while installed; `op` names the op that owns new spans."""

    def __init__(self):
        self.stack = []
        self.records = {}   # (op, parent, name) -> [calls, inclusive s, self s]
        self.counts = {}
        self.op = None
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name):
        stack, clock = self.stack, time.perf_counter
        records, counts = self.records, self.counts
        counter = COUNTERS.get(name)

        def span(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    key = (self.op, parent[0], name)
                else:
                    key = (self.op, None, name)
                rec = records.get(key)
                if rec is None:
                    records[key] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

        span.__wrapped__ = fn
        return span

    # -- patching -------------------------------------------------------------

    def install(self):
        """Patch every target; returns the list of targets not found."""
        missing = []
        for name, mod, cls_name, methods in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    missing.append(f"{mod}.{cls_name}.{meth}")
                    continue
                self._set(cls, meth, self._wrap(fn, name))
        cgv_modules = [m for k, m in sys.modules.items()
                       if m is not None and (k == "cgv" or k.startswith("cgv."))]
        wrappers = {}
        for name, mod, fn_name in FUNCTIONS:
            fn = getattr(sys.modules[mod], fn_name, None)
            if fn is None:
                missing.append(f"{mod}.{fn_name}")
                continue
            wrapped = wrappers[id(fn)] = self._wrap(fn, name)
            for m in cgv_modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, attr, wrapped)
        suites = sys.modules["cgv.suites"]
        self._set(suites, "SUITES",
                  tuple((s, wrappers.get(id(f), f)) for s, f in suites.SUITES))
        return missing

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def take(self):
        """Per-span totals recorded since the last take, then reset."""
        calls = {n: 0 for n in SPAN_NAMES}
        self_s = {n: 0.0 for n in SPAN_NAMES}
        incl_s = {n: 0.0 for n in SPAN_NAMES}
        edges = {}
        for (op, parent, name), (c, incl, slf) in self.records.items():
            calls[name] += c
            self_s[name] += slf
            incl_s[name] += incl
            edges[(parent, name)] = edges.get((parent, name), 0) + c
        out = {"calls": calls, "self_s": self_s, "incl_s": incl_s,
               "edges": edges, "counts": dict(self.counts),
               "records": [[op, parent, name, c, incl, slf]
                           for (op, parent, name), (c, incl, slf) in self.records.items()]}
        self.records.clear()
        self.counts.clear()
        return out
