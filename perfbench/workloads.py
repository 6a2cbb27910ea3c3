"""The benchmark's workloads: which systems each one runs, made from the seed.

Every system is defined here a second time, independently of ``siggb.corpus``,
as generator text.  That text feeds the sympy reference bases, and the systems
a workload reads through ``siggb.cli.parse_ideal`` are given to siggb as this
text.  A system built by ``siggb.corpus`` is therefore checked against a
reference that does not come from siggb at all.

This module imports nothing outside the standard library's ``os`` so that the
worker can time the import of siggb from a clean start.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The seed picks p from this list.  The engine's pair, rejection and element
# counts are identical for each of these primes, so the work a run measures
# does not depend on the seed; the coefficients, and so the outputs, do.
# The ℚ system does not depend on the seed.
PRIMES = (32003, 32009, 32027, 65521)


def prime_for_seed(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


class System:
    """One ideal of a workload.

    ``source`` says how siggb receives it: ``corpus`` builds it with
    ``siggb.corpus``, ``text`` parses this module's generator text through
    ``siggb.cli.parse_ideal``.  ``certify`` runs the engine as
    ``siggb --certify`` does and certifies every rejected pair.
    """

    def __init__(self, family: str, n: int, prime, source: str, certify: bool):
        self.family = family
        self.n = n
        self.prime = prime
        self.source = source
        self.certify = certify

    @property
    def name(self) -> str:
        return f"{self.family}-{self.n}"

    @property
    def key(self) -> str:
        field = "qq" if self.prime is None else f"gf{self.prime}"
        return f"{self.name}_{field}"


def systems(workload: str, prime: int) -> list:
    if workload == "cyclic5-gf":
        return [System("cyclic", 5, prime, "corpus", False),
                System("cyclic", 4, prime, "text", True)]
    if workload == "katsura6-gf":
        return [System("katsura", 6, prime, "corpus", False),
                System("katsura", 4, None, "text", True)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cyclic5-gf", "katsura6-gf")


# ---------------------------------------------------------------------------
# generator text, written from the definitions of the families

def _cyclic(n: int):
    names = tuple(f"x{i}" for i in range(1, n + 1))
    gens = []
    for d in range(1, n):
        windows = ("*".join(names[(s + o) % n] for o in range(d)) for s in range(n))
        gens.append(" + ".join(windows))
    gens.append("*".join(names) + " - 1")
    return names, gens


def _katsura(n: int):
    """sum_{l=-n..n} u_|l| u_|m-l| = u_m for m < n, and sum_{l=-n..n} u_|l| = 1."""
    names = tuple(f"u{i}" for i in range(n + 1))
    gens = []
    for m in range(n):
        coeffs: dict = {}
        for ell in range(-n, n + 1):
            a, b = abs(ell), abs(m - ell)
            if a <= n and b <= n:
                key = (min(a, b), max(a, b))
                coeffs[key] = coeffs.get(key, 0) + 1
        terms = []
        for (a, b), c in sorted(coeffs.items()):
            mono = f"{names[a]}^2" if a == b else f"{names[a]}*{names[b]}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
        gens.append(" + ".join(terms) + f" - {names[m]}")
    gens.append(" + ".join([names[0]] + [f"2*{v}" for v in names[1:]]) + " - 1")
    return names, gens


def generators(system: System):
    """(variable names, generator strings) in siggb's polynomial grammar."""
    if system.family == "cyclic":
        return _cyclic(system.n)
    return _katsura(system.n)


def ideal_text(system: System) -> str:
    names, gens = generators(system)
    field = "q" if system.prime is None else f"gf {system.prime}"
    head = [f"vars: {', '.join(names)}", "order: drl", f"field: {field}"]
    return "\n".join(head + gens) + "\n"


def build(system: System, siggb_cli, siggb_corpus):
    """The generators siggb receives for this system."""
    if system.source == "corpus":
        family = getattr(siggb_corpus, system.family)
        return family(system.n, system.prime)
    return siggb_cli.parse_ideal(ideal_text(system)).generators
