"""Reproducible test systems: seeded random ideals and two classics."""

from __future__ import annotations

import random

from .polyring import Field, MonomialOrder, PolyRing, Polynomial

DEFAULT_PRIME = 32003


def _var_names(n: int) -> tuple[str, ...]:
    if n <= 4:
        return ("x", "y", "z", "t")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


def _monomials_upto(n: int, d: int):
    """The exponent tuples of n variables with sum at most d, in the order
    of ``itertools.product(range(d + 1), repeat=n)``: the first exponent
    ascending, then the rest within the remaining degree."""
    if n == 0:
        yield ()
        return
    for a in range(d + 1):
        for rest in _monomials_upto(n - 1, d - a):
            yield (a, *rest)


def random_ideal(
    k: int, d: int, n: int, seed: int, p: int = DEFAULT_PRIME
) -> list[Polynomial]:
    """k dense random polynomials in n variables of degree <= d over GF(p).

    Every monomial up to the chosen degree gets a uniform coefficient; each
    generator's degree is drawn from [1, d].  Deterministic in the seed.
    """
    rng = random.Random(seed)
    ring = PolyRing(_var_names(n), Field(p), MonomialOrder("degrevlex"))
    gens: list[Polynomial] = []
    while len(gens) < k:
        deg = rng.randint(1, d)
        terms = {}
        for e in _monomials_upto(n, deg):
            terms[e] = rng.randrange(p)
        f = ring.build(terms)
        if not f.is_zero and f.ht != ring.zero_exp:
            gens.append(f)
    return gens


def cyclic(n: int, p: int | None = DEFAULT_PRIME) -> list[Polynomial]:
    """The cyclic-n system, over GF(p), or over ℚ when p is None."""
    ring = PolyRing(_var_names(n), Field(p), MonomialOrder("degrevlex"))
    gens = []
    for d in range(1, n):
        terms = []
        for start in range(n):
            e = [0] * n
            for off in range(d):
                e[(start + off) % n] += 1
            terms.append((e, 1))
        gens.append(ring.build(terms))
    gens.append(ring.build([((1,) * n, 1), (ring.zero_exp, -1)]))
    return gens


def katsura(n: int, p: int | None = DEFAULT_PRIME) -> list[Polynomial]:
    """The katsura-n system in n+1 unknowns u_0..u_n, over GF(p), or over ℚ
    when p is None."""
    nv = n + 1
    ring = PolyRing(tuple(f"u{i}" for i in range(nv)), Field(p), MonomialOrder("degrevlex"))

    def u(i: int) -> int | None:
        i = abs(i)
        return i if i <= n else None

    gens = []
    for m in range(n):
        terms = []
        for ell in range(-n, n + 1):
            a, b = u(ell), u(m - ell)
            if a is None or b is None:
                continue
            e = [0] * nv
            e[a] += 1
            e[b] += 1
            terms.append((e, 1))
        e = [0] * nv
        e[m] = 1
        terms.append((e, -1))
        gens.append(ring.build(terms))
    terms = []
    for i in range(nv):
        e = [0] * nv
        e[i] = 1
        terms.append((e, 1 if i == 0 else 2))
    terms.append((ring.zero_exp, -1))
    gens.append(ring.build(terms))
    return gens


def corpus_shapes(count: int, base_seed: int = 0):
    """Deterministic (k, d, n, seed) shapes for the oracle corpus."""
    rng = random.Random(base_seed)
    shapes = []
    for i in range(count):
        k = rng.choice([2, 2, 3, 3, 4])
        d = rng.choice([1, 2, 2, 3, 3, 4])
        shapes.append((k, d, 3, base_seed * 10_000 + i))
    return shapes
