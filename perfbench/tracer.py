"""Outside-in tracing of siggb's public functions, installed by the benchmark.

No file of siggb changes: ``Tracer.install`` replaces each listed function by
a wrapper wherever siggb binds it, in its own module and in every module that
imported it by name (``f5engine`` and ``baseline`` import ``reduce_full``,
``reduced_basis`` and ``exp_divides`` from ``polyring``, for example), and
``uninstall`` puts the originals back.

A spanned function records a span (name, start, end, parent span) per call.
The spans stay in memory until the benchmark writes them out.  A span's self
time is its duration minus the durations of its child spans; a layer's self
time is the sum over its spans.  Hot leaves (``exp_divides``, ``sig_compare``)
are counted per call, not spanned, so their time, and that of the other
exponent helpers of ``polyring`` that are not wrapped at all, stays in the
self time of the caller.  None of the spanned functions calls itself, so a
function's inclusive time is the plain sum of its span durations.
"""

import gzip
import sys
import time
from array import array

# Spanned functions per siggb module, those the workloads reach; "Class.method"
# names a method.
SPANNED = {
    "polyring": (
        "PolyRing.build", "PolyRing.parse",
        "Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__mul__",
        "Polynomial.__neg__", "Polynomial.mul_term", "Polynomial.scale",
        "Polynomial.monic", "Polynomial.sub_mul",
        "spol", "reduce_full", "reduced_basis",
    ),
    "f5engine": (
        "incremental_basis", "interreduce", "certify_all", "is_normalized",
        "is_rewritable", "top_reduction_signed", "BasisState.validate_witnesses",
    ),
    "syzygy": ("certify_rejection", "evaluate", "mht", "principal_syzygy"),
    "falsifier": ("completely_normalized", "scan_run"),
    "baseline": ("buchberger_basis",),
    "corpus": ("cyclic", "katsura"),
    "cli": ("parse_ideal",),
}

# Counted leaves: one counter per module that binds the name.
COUNTED = {"polyring": ("exp_divides",), "signature": ("sig_compare",)}


def span_name(module: str, attr: str) -> str:
    """``polyring.Polynomial.__add__`` -> ``polyring.add``."""
    return f"{module}.{attr.rsplit('.', 1)[-1].strip('_')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._patches: list = []
        self.counts: dict[str, list[int]] = {}
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        for cell in self.counts.values():
            cell[0] = 0

    # wrappers ---------------------------------------------------------------

    def _span(self, fn, name: str, count_terms: bool = False):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()

        if not count_terms:
            return wrapper

        terms = self._cell("polyring.sub_mul.terms")

        def sub_mul(self_, c, e, other):
            # operand terms processed: the minuend's and the multiplied operand's
            terms[0] += len(self_.terms) + len(other.terms)
            return wrapper(self_, c, e, other)

        return sub_mul

    def count(self, key: str) -> int:
        return self._cell(key)[0]

    def _cell(self, key: str) -> list[int]:
        cell = self.counts.get(key)
        if cell is None:
            cell = self.counts[key] = [0]
        return cell

    def _counter(self, fn, key: str):
        cell = self._cell(key)

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "siggb" or n.startswith("siggb.")}
        for short, attrs in SPANNED.items():
            mod = mods["siggb." + short]
            for attr in attrs:
                name = span_name(short, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    wrapper = self._span(cls.__dict__[meth], name, attr == "Polynomial.sub_mul")
                    self._patch(cls, meth, wrapper)
                    continue
                orig = getattr(mod, attr)
                wrapper = self._span(orig, name)
                for m in mods.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapper)
        for short, attrs in COUNTED.items():
            for attr in attrs:
                orig = getattr(mods["siggb." + short], attr)
                for mname, m in mods.items():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            ckey = f"{short}.{attr}.{mname.rsplit('.', 1)[-1]}"
                            self._patch(m, key, self._counter(orig, ckey))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # results ----------------------------------------------------------------

    def summary(self):
        """Calls and inclusive seconds per span name, self seconds per module."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            module = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            self_s[module] = self_s.get(module, 0.0) + dur[i] - child[i]
        counts = {key: cell[0] for key, cell in self.counts.items()}
        return calls, incl, self_s, counts

    def write_spans(self, path: str) -> None:
        """One span per line: id, parent id, name, start and end in seconds
        from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.7f}\t{self.span_end[i] - t0:.7f}\n")
