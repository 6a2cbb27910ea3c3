"""Correctness checks on a workload's outputs, made outside siggb.

A system passes when both engines' reduced bases equal the sympy reference,
the relaxed-criterion scan reports no part-(b) firing and full agreement, and,
for a certified system, there is one certificate per rejection event and every
certificate passes a re-check in sympy polynomial arithmetic: its syzygy
evaluates to zero, and each entry's head term times that position's signature
keeps under the certificate's bound in the module order defined here.
"""

import copy
from fractions import Fraction


class Tally:
    """Systems attempted and failed; a failed system's problems are kept.

    ``wrong`` counts the failed systems that returned wrong outputs, as
    opposed to raising an exception.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list, raised: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            self.problems.extend(f"{label}: {p}" for p in problems)


# ---------------------------------------------------------------------------
# the benchmark's own monomial and module orders

def grevlex_key(e) -> tuple:
    """Degree first, then the reverse-lexicographic tie break."""
    return (sum(e), tuple(-x for x in reversed(e)))


def module_cmp(a, b) -> int:
    """-1, 0 or 1 comparing module terms (gamma, index): a larger index is
    smaller, equal indices compare gamma in grevlex."""
    (ga, ia), (gb, ib) = a, b
    if ia != ib:
        return -1 if ia > ib else 1
    ka, kb = grevlex_key(ga), grevlex_key(gb)
    return (ka > kb) - (ka < kb)


def module_term(u, sig) -> tuple:
    gamma, index = sig
    return (tuple(x + y for x, y in zip(u, gamma)), index)


# ---------------------------------------------------------------------------
# bases

def basis_set(basis) -> frozenset:
    return frozenset(frozenset((tuple(e), c) for e, c in poly) for poly in basis)


def _check_basis(label: str, basis, reference) -> list:
    if len(basis) != len(reference) or basis_set(basis) != basis_set(reference):
        return [f"{label} basis ({len(basis)} elements) differs from the sympy "
                f"reference ({len(reference)} elements)"]
    return []


# ---------------------------------------------------------------------------
# certificates

def _ring(prime, nvars):
    from sympy.polys.domains import GF, QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    domain = QQ if prime is None else GF(prime)
    R = ring([f"v{i}" for i in range(nvars)], domain, grevlex)[0]

    if prime is None:
        def coeff(s):
            f = Fraction(s)
            return QQ(f.numerator, f.denominator)
    else:
        def coeff(s):
            return domain(int(s))

    def poly(terms):
        return R.from_dict({tuple(e): coeff(c) for e, c in terms})

    return R, poly


def check_certificates(prime, payload) -> list:
    elements = payload["elements"]
    certs = payload["certs"]
    problems = []
    if payload["certificates"] != payload["rejections"]:
        problems.append(f"{payload['certificates']} certificates for "
                        f"{payload['rejections']} rejection events")
    stats = payload["stats"]
    if payload["rejections"] != stats["rejected_not_normalized"] + stats["rejected_rewritable"]:
        problems.append("rejection events disagree with the engine's rejection counts")
    if not certs:
        return problems
    nvars = len(elements[0][0])
    R, poly = _ring(prime, nvars)
    gens = [poly(terms) for _, _, terms in elements]
    sigs = [(tuple(gamma), index) for gamma, index, _ in elements]
    for n, cert in enumerate(certs):
        where = f"certificate {n} (pair {cert['pair']}, {cert['kind']})"
        value = R.zero
        for pos, terms in cert["vector"]:
            value += poly(terms) * gens[pos - 1]
        if value:
            problems.append(f"{where}: syzygy evaluates to a nonzero polynomial")
        bound = module_term(cert["u"], sigs[cert["flagged"] - 1])
        if module_cmp(bound, (tuple(cert["bound"][0]), cert["bound"][1])) != 0:
            problems.append(f"{where}: reported bound differs from u*Sig(r_k)")
        for pos, terms in cert["vector"]:
            head = max((tuple(e) for e, _ in terms), key=grevlex_key)
            rel = module_cmp(module_term(head, sigs[pos - 1]), bound)
            limit = 0 if pos in (cert["flagged"], cert["crit"]) else -1
            if rel > limit:
                problems.append(f"{where}: entry e{pos} exceeds the signature bound")
    return problems


# ---------------------------------------------------------------------------
# one system

def check_system(system, payload, reference) -> list:
    """Problems found in one system's outputs; empty when it passes."""
    if "error" in payload:
        return [f"raised {payload['error'].strip().splitlines()[-1]}"]
    problems = _check_basis("signature engine", payload["basis"], reference["basis"])
    problems += _check_basis("Buchberger oracle", payload["oracle"], reference["basis"])
    scan = payload["scan"]
    if scan["part_b"]:
        problems.append(f"scan_run reports {scan['part_b']} part-(b) firings")
    if not scan["agree"]:
        problems.append("scan_run reports disagreement")
    if scan["scanned"] != scan["pairs"]:
        problems.append(f"scan_run scanned {scan['scanned']} of {scan['pairs']} pairs")
    if system.certify:
        problems += check_certificates(system.prime, payload)
    return problems


# ---------------------------------------------------------------------------
# self-test: each check must catch a corrupted result

def _bump(c: str, prime) -> str:
    if prime is None:
        return str(Fraction(c) + 1)
    return str((int(c) + 1) % prime)


def corruptions(system, payload):
    """(description, corrupted copy) for the three corruptions."""
    dropped = copy.deepcopy(payload)
    dropped["basis"].pop()
    yield "basis with one element dropped", dropped

    changed = copy.deepcopy(payload)
    terms = changed["certs"][0]["vector"][0][1]
    terms[0][1] = _bump(terms[0][1], system.prime)
    yield "certificate vector with one coefficient changed", changed

    fired = copy.deepcopy(payload)
    fired["scan"]["part_b"] = 1
    yield "scan report with one part-(b) firing", fired


def self_test(system, payload, reference) -> list:
    """Failures of the checks themselves; empty when every corruption is caught."""
    out = []
    for what, bad in corruptions(system, payload):
        tally = Tally()
        tally.record(system.key, check_system(system, bad, reference))
        if tally.failed != 1:
            out.append(f"the checks accepted a {what}")
    return out
