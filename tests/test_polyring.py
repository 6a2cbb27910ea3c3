import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siggb.polyring

from siggb.polyring import (
    Cmp,
    DomainError,
    Field,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    QQ,
    Reducers,
    StructureError,
    compare,
    exp_div,
    exp_divides,
    exp_mask,
    exp_mul,
    lcm_term,
    minimal_basis,
    reduce_full,
    reduced_basis,
    spol,
    sum_of_products,
    top_reduce,
    _step,
)

DRL = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def naive_drl(a, b):
    """Degree first; ties broken by the last nonzero entry of a-b, negative wins."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def naive_lex(a, b):
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


exps4 = st.tuples(*([st.integers(0, 6)] * 4))


# -- compare -----------------------------------------------------------------

def test_compare_known_values():
    # yz^3 vs x^2t^2 and x^2y vs z^2t under degrevlex x>y>z>t
    assert compare((0, 1, 3, 0), (2, 0, 0, 2), DRL) is Cmp.GT
    assert compare((2, 1, 0, 0), (0, 0, 2, 1), DRL) is Cmp.GT
    m = (1, 2, 3, 4)
    assert compare(m, m, DRL) is Cmp.EQ
    assert compare(m, m, LEX) is Cmp.EQ


def test_compare_length_mismatch():
    with pytest.raises(StructureError):
        compare((1, 0), (1, 0, 0), DRL)


@given(exps4, exps4)
def test_compare_matches_naive_oracle(a, b):
    assert int(compare(a, b, DRL)) == naive_drl(a, b)
    assert int(compare(a, b, LEX)) == naive_lex(a, b)


@given(exps4, exps4, exps4)
def test_compare_transitive(a, b, c):
    if compare(a, b, DRL) is not Cmp.GT and compare(b, c, DRL) is not Cmp.GT:
        assert compare(a, c, DRL) is not Cmp.GT


@given(exps4, exps4, exps4)
def test_compare_multiplicative(a, b, u):
    assert compare(exp_mul(a, u), exp_mul(b, u), DRL) is compare(a, b, DRL)


# -- lcm ----------------------------------------------------------------------

def test_lcm_known_values():
    yz3 = (0, 1, 3, 0)
    xz2 = (1, 0, 2, 0)
    assert lcm_term(yz3, xz2) == (1, 1, 3, 0)  # xyz^3
    m = (2, 0, 1, 5)
    one = (0, 0, 0, 0)
    assert lcm_term(m, one) == m
    assert lcm_term(m, m) == m


@given(exps4, exps4)
def test_lcm_properties(a, b):
    l = lcm_term(a, b)
    assert exp_divides(a, l) and exp_divides(b, l)
    assert lcm_term(b, a) == l


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=8))
def test_exp_mask_never_skips_a_divisor(pairs):
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    for t in (b, exp_mul(a, b)):
        if exp_divides(a, t):
            assert exp_mask(a) & ~exp_mask(t) == 0


# -- packed monomials -----------------------------------------------------------

@st.composite
def packed_case(draw):
    """A ring of 1-7 variables under degrevlex or lex, and two of its
    monomials."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("degrevlex", "lex")))
    names = tuple(f"x{i}" for i in range(n))
    exps = st.tuples(*([st.integers(0, 9)] * n))
    return names, MonomialOrder(kind), draw(exps), draw(exps)


@given(packed_case())
def test_packed_monomials_match_exponent_tuples(case):
    names, order, a, b = case
    ring = PolyRing(names, QQ, order)
    pa, pb = ring.pack(a), ring.pack(b)
    assert (pa > pb) - (pa < pb) == int(compare(a, b, order))
    assert pa + pb == ring.pack(exp_mul(a, b))
    assert (not (pb - pa) & ring._guard) == exp_divides(a, b)
    # a fresh ring has no cached entry, so unpack decodes the fields
    assert PolyRing(names, QQ, order).unpack(pa + pb) == exp_mul(a, b)
    assert ring.unpack(pa) == a


def test_oversized_exponent_raises_domain_error():
    lex = PolyRing(("x", "y"), QQ, LEX)
    top = 2**31 - 1
    assert lex.unpack(lex.pack((top, 0))) == (top, 0)
    with pytest.raises(DomainError):
        lex.pack((top + 1, 0))
    drl = PolyRing(("x", "y"))
    with pytest.raises(DomainError):  # the degree field overflows first
        drl.pack((2**30, 2**30))
    with pytest.raises(DomainError):
        reduce_full(drl.monomial((top + 1, 0)), [drl.parse("y")])
    # under lex a product can outgrow its factors: x^2 -> x*y^K -> y^(2K)
    k = 2**30
    with pytest.raises(DomainError):
        reduce_full(lex.parse("x^2"), [lex.parse(f"x - y^{k}")])


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(siggb.polyring._is_prime(n) == trial(n) for n in range(-3, 20000))


def test_primality_refuses_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k primes, k = 1..12
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not siggb.polyring._is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59, 10**24 + 7):
        assert siggb.polyring._is_prime(n)
    bound = siggb.polyring._PRIME_BOUND
    assert not siggb.polyring._is_prime(bound - 1)
    with pytest.raises(DomainError):
        Field(bound)
    with pytest.raises(DomainError):
        Field(2**89 - 1)


def test_mul_term_without_coefficient_keeps_each_coefficient():
    ring = PolyRing(("x", "y"))
    p = ring.parse("2/3*x^2 - 5*y + 1/7")
    q = p.mul_term((1, 2))
    assert q == ring.parse("2/3*x^3*y^2 - 5*x*y^3 + 1/7*x*y^2")
    assert [c for _, c in q.terms] == [c for _, c in p.terms]
    assert all(qc is pc for (_, qc), (_, pc) in zip(q.terms, p.terms))


def test_minimal_basis_keeps_first_of_equal_heads():
    ring = PolyRing(("x", "y"))
    polys = [ring.parse(s) for s in ("x^2 + y", "x + 1", "x + y", "y^2")]
    assert minimal_basis(polys + [ring.zero]) == [polys[1], polys[3]]
    assert minimal_basis([]) == []


# -- ring construction / parsing ----------------------------------------------

@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z", "t"))


def test_build_normalizes(ring):
    p = ring.build({(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(0)})
    assert len(p.terms) == 1
    q = ring.build([((1, 0, 0, 0), Fraction(2)), ((1, 0, 0, 0), Fraction(-2))])
    assert q.is_zero


def test_terms_strictly_descending(ring):
    p = ring.parse("x + y^2 + z*t + 1")
    keys = [ring.key(e) for e, _ in p.terms]
    assert keys == sorted(keys, reverse=True)


def test_parse_grammar(ring):
    p = ring.parse("3*x^2*y - 1/2*z*t^3")
    assert len(p.terms) == 2
    assert p.hc == Fraction(-1, 2)  # z*t^3 has degree 4, x^2*y only 3
    assert dict(p.terms)[(2, 1, 0, 0)] == Fraction(3)
    q = ring.parse("y*z^3 - x^2*t^2")
    assert len(q.terms) == 2
    # '*' optional, whitespace insignificant
    assert ring.parse("yz^3-x^2t^2") == q
    assert ring.parse("  y z^3   -   x^2 t^2 ") == q


def test_parse_coefficient_merging(ring):
    assert ring.parse("x + x") == ring.parse("2x")
    assert ring.parse("2*3*x") == ring.parse("6x")
    assert ring.parse("-x - -x") == ring.zero
    assert ring.parse("x*x*x") == ring.parse("x^3")


def test_parse_errors(ring):
    with pytest.raises(ParseError):
        ring.parse("w + 1")  # unknown variable
    with pytest.raises(ParseError):
        ring.parse("x +")
    with pytest.raises(ParseError):
        ring.parse("")
    with pytest.raises(ParseError):
        ring.parse("x^")
    with pytest.raises(ParseError):
        ring.parse("x * * y")
    err = None
    try:
        ring.parse("x + $")
    except ParseError as e:
        err = e
    assert err is not None and err.column == 5


small_fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
)
polys_q = st.dictionaries(exps4, small_fracs, max_size=5)


@given(polys_q)
def test_render_parse_roundtrip(d):
    ring = PolyRing(("x", "y", "z", "t"))
    p = ring.build(d)
    assert ring.parse(str(p)) == p


@given(st.dictionaries(exps4, st.integers(0, 32002), max_size=5))
def test_render_parse_roundtrip_gf(d):
    ring = PolyRing(("x", "y", "z", "t"), Field(32003))
    p = ring.build(d)
    assert ring.parse(str(p)) == p


# -- arithmetic ---------------------------------------------------------------

@given(polys_q, polys_q)
def test_head_term_multiplicative(d1, d2):
    ring = PolyRing(("x", "y", "z", "t"))
    p, q = ring.build(d1), ring.build(d2)
    if not p.is_zero and not q.is_zero:
        assert (p * q).ht == exp_mul(p.ht, q.ht)
        assert (p * q).hc == p.hc * q.hc


@given(polys_q, polys_q)
def test_add_sub_inverse(d1, d2):
    ring = PolyRing(("x", "y", "z", "t"))
    p, q = ring.build(d1), ring.build(d2)
    assert p + q - q == p
    assert (p - p).is_zero


def test_monic_and_lot(ring):
    p = ring.parse("3x^2 + 6y")
    assert p.monic() == ring.parse("x^2 + 2y")
    with pytest.raises(DomainError):
        _ = ring.zero.ht


@given(st.dictionaries(exps4, st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7), max_size=4))
def test_gf_agrees_with_rationals(d):
    """Arithmetic over GF(p) matches exact rationals reduced mod p."""
    p = 32003
    ringq = PolyRing(("x", "y", "z", "t"))
    ringp = PolyRing(("x", "y", "z", "t"), Field(p))
    fq = ringq.build(d)
    fp = ringp.build({e: ringp.field.of(c) for e, c in d.items()})
    sq = fq * fq + fq
    sp = fp * fp + fp
    assert {e: ringp.field.of(c) for e, c in sq.terms} == dict(sp.terms)


@given(st.sampled_from((QQ, Field(7))),
       st.lists(st.tuples(st.sampled_from(((1, 0), (0, 1), (0, 0))),
                          st.one_of(st.integers(-20, 20),
                                    st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                                                 max_denominator=6))),
                max_size=8))
def test_build_makes_canonical_coefficients(field, terms):
    """Over GF(7) every coefficient build returns is an int in [1, 7), over
    ℚ a nonzero Fraction, and each is the field's image of the exact sum of
    its monomial's coefficients; three monomials make repeats common."""
    ring = PolyRing(("x", "y"), field)
    p = ring.build(terms)
    sums = {}
    for e, c in terms:
        sums[e] = sums.get(e, 0) + c
    want = {e: field.of(c) for e, c in sums.items() if field.of(c)}
    assert dict(p.terms) == want
    for _, c in p.packed:
        if field.p:
            assert type(c) is int and 0 < c < field.p
        else:
            assert type(c) is Fraction and c != 0


# -- S-polynomials -------------------------------------------------------------

def test_spol_known_values(ring):
    f1 = ring.parse("y*z^3 - x^2*t^2")
    f2 = ring.parse("x*z^2 - y^2*t")
    f3 = ring.parse("x^2*y - z^2*t")
    u1, u2, s = spol(f1, f2)
    assert ring.render_exp(u1) == "x"
    assert ring.render_exp(u2) == "y*z"
    assert s == ring.parse("y^3*z*t - x^3*t^2")
    u1, u2, s = spol(f1, f3)
    assert ring.render_exp(u1) == "x^2"
    assert ring.render_exp(u2) == "z^3"
    assert s == ring.parse("z^5*t - x^4*t^2")
    _, _, s = spol(f1, f1)
    assert s.is_zero


def test_spol_zero_input(ring):
    with pytest.raises(DomainError):
        spol(ring.zero, ring.one)


@given(polys_q, polys_q)
def test_spol_head_cancellation(d1, d2):
    ring = PolyRing(("x", "y", "z", "t"))
    p, q = ring.build(d1), ring.build(d2)
    if p.is_zero or q.is_zero:
        return
    u1, u2, s = spol(p, q)
    l = lcm_term(p.ht, q.ht)
    assert exp_mul(u1, p.ht) == l and exp_mul(u2, q.ht) == l
    if not s.is_zero:
        assert compare(s.ht, l, ring.order) is Cmp.LT


def test_spol_matches_naive_expansion(ring):
    """Independent dict-arithmetic oracle for the S-polynomial formula."""
    f1 = ring.parse("y*z^3 - x^2*t^2")
    f2 = ring.parse("x*z^2 - y^2*t")
    u1, u2, s = spol(f1, f2)

    def dmul(d, e, c):
        return {exp_mul(k, e): v * c for k, v in d.items()}

    d1 = dmul(dict(f1.terms), u1, f2.hc)
    d2 = dmul(dict(f2.terms), u2, f1.hc)
    acc = dict(d1)
    for k, v in d2.items():
        acc[k] = acc.get(k, Fraction(0)) - v
    assert ring.build(acc) == s


# -- reduction -----------------------------------------------------------------

def test_top_reduce_known_values(ring):
    f1 = ring.parse("y*z^3 - x^2*t^2")
    f2 = ring.parse("x*z^2 - y^2*t")
    f3 = ring.parse("x^2*y - z^2*t")
    multiple = f2.mul_term((2, 0, 0, 2))  # x^2t^2 * f2
    assert top_reduce(multiple, [f2]).is_zero
    assert top_reduce(ring.zero, [f1, f2]).is_zero
    s = ring.parse("y^3*z*t - x^3*t^2")
    # no basis head divides y^3zt (brute-force checked by exp_divides)
    assert not any(exp_divides(g.ht, s.ht) for g in (f2, f3, f1))
    assert top_reduce(s, [f2, f3, f1]) == s


@given(st.lists(st.dictionaries(exps4, st.integers(1, 32002), min_size=1, max_size=4), min_size=1, max_size=4),
       st.dictionaries(exps4, st.integers(0, 32002), max_size=5))
@settings(max_examples=60)
def test_top_reduce_idempotent(basis_dicts, pd):
    ring = PolyRing(("x", "y", "z", "t"), Field(32003))
    basis = [g for g in (ring.build(d) for d in basis_dicts) if not g.is_zero]
    p = ring.build(pd)
    r = top_reduce(p, basis)
    assert top_reduce(r, basis) == r
    if not r.is_zero:
        assert not any(exp_divides(g.ht, r.ht) for g in basis)


@given(st.lists(st.dictionaries(exps4, st.integers(1, 32002), min_size=1, max_size=4), min_size=1, max_size=3),
       st.dictionaries(exps4, st.integers(0, 32002), max_size=5))
@settings(max_examples=60)
def test_reduce_full_irreducible(basis_dicts, pd):
    ring = PolyRing(("x", "y", "z", "t"), Field(32003))
    basis = [g for g in (ring.build(d) for d in basis_dicts) if not g.is_zero]
    r = reduce_full(ring.build(pd), basis)
    for e, _ in r.terms:
        assert not any(exp_divides(g.ht, e) for g in basis)


def test_reduced_basis_simple():
    ring = PolyRing(("x", "y"))
    x, y = ring.parse("x"), ring.parse("y")
    out = reduced_basis([x, ring.parse("x + y")])
    assert out == [y, x] or set(out) == {x, y}


# -- differential: the merge and the heap loop against dict-and-sort -------------
#
# The reference below is the dict-and-sort arithmetic: every sub_mul rebuilds
# a coefficient dict and re-sorts it, and both reductions repeat sub_mul on the
# head term.  Small exponents and coefficients in a small prime field make
# terms collide and cancel inside the accumulator often.
#
# Under lex a reduction may take a very long chain of steps (the tail of a
# reducer can carry a higher total degree than its head), and autoreducing
# arbitrary input of this size can run for minutes.  So no generated term has
# a total degree above that of its polynomial's head: then a reduction never
# raises the degree, every monomial it meets lies in the finite set below the
# input's degree, and each monomial is reduced at most once.  The
# reduced_basis cases are homogeneous, so every polynomial autoreduction makes
# is homogeneous too and keeps that bound.

def ref_sub_mul(p, c, e, g):
    of = p.ring.field.of
    acc = dict(p.terms)
    for te, tc in g.terms:
        m = exp_mul(te, e)
        acc[m] = of(acc.get(m, 0) - of(tc * c))
    live = [(m, v) for m, v in acc.items() if v]
    live.sort(key=lambda t: p.ring.key(t[0]), reverse=True)
    return p.ring.build(live)


def ref_first_reducer(t, basis):
    for g in basis:
        if not g.is_zero and exp_divides(g.ht, t):
            return g
    return None


def ref_top_reduce(p, basis):
    while not p.is_zero:
        g = ref_first_reducer(p.ht, basis)
        if g is None:
            break
        f = p.ring.field
        p = ref_sub_mul(p, f.of(p.hc * f.inv(g.hc)), exp_div(p.ht, g.ht), g)
    return p.monic()


def ref_reduce_full(p, basis):
    done = []
    while not p.is_zero:
        g = ref_first_reducer(p.ht, basis)
        if g is None:
            done.append(p.terms[0])
            p = p.ring.build(p.terms[1:])
        else:
            f = p.ring.field
            p = ref_sub_mul(p, f.of(p.hc * f.inv(g.hc)), exp_div(p.ht, g.ht), g)
    return p.ring.build(done)


def ref_reduced_basis(polys):
    current = [p.monic() for p in polys if not p.is_zero]
    if not current:
        return []
    ring = current[0].ring
    while True:
        current.sort(key=lambda p: ring.key(p.ht))
        reduced, changed = [], False
        for i, f in enumerate(current):
            r = ref_reduce_full(f, reduced + current[i + 1:])
            if r.is_zero:
                changed = True
                continue
            r = r.monic()
            changed = changed or r != f
            reduced.append(r)
        if not changed:
            return current
        current = reduced


DIFF_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"))
DIFF_FIELDS = (QQ, Field(7))
exps3 = st.tuples(*([st.integers(0, 2)] * 3))
_all_exps3 = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]


def degree_bounded(q, homogeneous=False):
    """q without the terms of higher total degree than its head (without
    every term of another degree, if homogeneous)."""
    if q.is_zero:
        return q
    top = sum(q.ht)
    keep = (lambda d: d == top) if homogeneous else (lambda d: d <= top)
    return q.ring.build(t for t in q.terms if keep(sum(t[0])))


@st.composite
def diff_case(draw, max_basis=4, homogeneous=False):
    """A ring, a polynomial and a basis; the basis may be empty, and may
    repeat a head term through a scaled copy of one element.  Over ℚ the
    coefficients are fractions of denominator up to 4, so that a reduction
    step rescales its integer numerators."""
    ring = PolyRing(("x", "y", "z"), draw(st.sampled_from(DIFF_FIELDS)),
                    draw(st.sampled_from(DIFF_ORDERS)))
    if ring.field.p:
        coeffs = st.integers(-3, 3).map(ring.field.of)
    else:
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    poly = st.dictionaries(exps3, coeffs, max_size=6).map(
        lambda d: degree_bounded(ring.build(d), homogeneous))
    basis = draw(st.lists(poly, max_size=max_basis))
    if basis and draw(st.booleans()):
        g = basis[draw(st.integers(0, len(basis) - 1))]
        if not g.is_zero:
            lot = g - ring.monomial(g.ht, g.hc)
            basis.append(g.scale(ring.field.of(2)) + lot.scale(ring.field.of(3)))
    return ring, draw(poly), basis


@given(diff_case(), exps3, st.integers(-3, 3))
@settings(max_examples=300)
def test_sub_mul_matches_dict_and_sort(case, e, c):
    ring, p, basis = case
    f = ring.field
    c = f.of(c)
    for g in basis + [p, ring.zero]:
        assert p.sub_mul(c, e, g) == ref_sub_mul(p, c, e, g)
        # + and - are the same merge, with x^e = 1 and c = -1 or 1
        for got, sign in ((p + g, f.of(-1)), (p - g, f.one)):
            assert got == ref_sub_mul(p, sign, ring.zero_exp, g)
            assert all(type(tc) is type(f.one) for _, tc in got.packed)


@given(diff_case(), exps3, st.integers(-9, 9))
@settings(max_examples=300)
def test_scale_and_mul_term_match_field_mul(case, e, c):
    ring, p, _ = case
    of = ring.field.of
    c = of(c)
    if not c:
        assert p.scale(c).is_zero and p.mul_term(e, c).is_zero
        return
    assert p.scale(c).terms == tuple((te, of(tc * c)) for te, tc in p.terms)
    assert p.mul_term(e, c).terms == tuple(
        (exp_mul(te, e), of(tc * c)) for te, tc in p.terms)


@given(diff_case())
@settings(max_examples=300)
def test_sub_mul_cancels_to_zero(case):
    ring, p, _ = case
    assert p.sub_mul(ring.field.one, ring.zero_exp, p).is_zero
    assert ring.zero.sub_mul(ring.field.one, ring.zero_exp, ring.zero).is_zero


@given(diff_case())
@settings(max_examples=300)
def test_reductions_match_dict_and_sort(case):
    ring, p, basis = case
    for q in (p, ring.zero):
        assert top_reduce(q, basis) == ref_top_reduce(q, basis)
        assert reduce_full(q, basis) == ref_reduce_full(q, basis)
    # p and its multiples, reduced first by p itself, cancel inside the loop
    assert reduce_full(p, [p] + basis).is_zero
    assert top_reduce(p.mul_term((1, 0, 1)), [p] + basis).is_zero


@given(diff_case(max_basis=5, homogeneous=True))
@settings(max_examples=150)
def test_reduced_basis_matches_dict_and_sort(case):
    _, p, basis = case
    assert reduced_basis(basis + [p]) == ref_reduced_basis(basis + [p])
    assert reduced_basis([]) == []


@st.composite
def duplicated_heads_case(draw):
    """Homogeneous input in which every element has a second element of the
    same head, a scaled copy with another tail, and the first one comes
    twice."""
    ring, p, basis = draw(diff_case(max_basis=4, homogeneous=True))
    f = ring.field
    polys = [q for q in basis + [p] if not q.is_zero]
    copies = [q.scale(f.of(2)) + (q - ring.monomial(q.ht, q.hc)).scale(f.of(3)) for q in polys]
    return polys + copies + [polys[0]] if polys else []


def ref_round_results(polys):
    """Every result, round by round, of ``reduced_basis``'s reductions as
    the list ``reduced + current[i + 1:]`` gives them, by the dict-and-sort
    reference, with the same last round."""
    current = [p.monic() for p in polys if not p.is_zero]
    results = []
    while current:
        ring = current[0].ring
        current.sort(key=lambda p: ring.key(p.ht))
        reduced, heads_kept = [], True
        for i, f in enumerate(current):
            r = ref_reduce_full(f, reduced + current[i + 1:])
            results.append(r)
            if not r.is_zero:
                heads_kept = heads_kept and r.ht == f.ht
                reduced.append(r.monic())
        if heads_kept:
            break
        current = reduced
    return results


@given(duplicated_heads_case())
@settings(max_examples=150)
def test_reduced_basis_of_duplicated_heads_matches_dict_and_sort(polys):
    results = []
    reduce_full = siggb.polyring.reduce_full

    def recorded(p, basis):
        results.append(reduce_full(p, basis))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(siggb.polyring, "reduce_full", recorded)
        out = reduced_basis(polys)
    assert out == ref_reduced_basis(polys)
    # one reduction per element and round, each with the old list's result
    assert results == ref_round_results(polys)


def test_reduced_basis_on_equal_heads():
    ring = PolyRing(("x", "y", "z"))
    P = ring.parse
    # x^2 + y is reduced by the next element, of the same head: its head
    # divisible by no earlier result's head
    polys = [P("x^2 + y"), P("x^2 + z"), P("x^2 + y")]
    assert reduced_basis(polys) == ref_reduced_basis(polys) == [P("y - z"), P("x^2 + z")]
    assert ref_round_results(polys)[:2] == [P("y - z"), ring.zero]
    # an earlier result's head, y, divides x*y, so it reduces x*y + x
    # before the next element of the same head could
    polys = [P("x*y + z^2"), P("x*y + x"), P("y")]
    assert reduced_basis(polys) == ref_reduced_basis(polys) == [P("y"), P("x"), P("z^2")]
    assert ref_round_results(polys)[:3] == [P("y"), P("z^2"), P("x")]


# -- Reducers: the append-only list, its first-reducer memo and its steps --------
#
# Every append is followed by reductions against both the Reducers and the
# plain list of the elements so far, and against the dict-and-sort
# reference: the memos carry answers from reduction to reduction and from
# one append to the next, and must agree with a fresh scan each time.

def normalized_fractions(p):
    """True when every coefficient of p is a Fraction in lowest terms."""
    return all(type(c) is Fraction and c.denominator > 0
               and math.gcd(c.numerator, c.denominator) == 1 for _, c in p.packed)


@given(diff_case(max_basis=5))
@settings(max_examples=300)
def test_reducers_match_the_list_so_far(case):
    ring, p, basis = case
    queries = [p, p.mul_term((1, 0, 1)), p.mul_term((0, 2, 0))] + basis
    reducers = Reducers(ring)
    so_far = []
    for g in [None] + basis:
        if g is not None:
            reducers.append(g)
            so_far.append(g)
        assert len(reducers.polys) == sum(1 for q in so_far if q)
        for q in queries:
            got = reduce_full(q, reducers)
            assert got == reduce_full(q, so_far) == ref_reduce_full(q, so_far)
            top = top_reduce(q, reducers)
            assert top == top_reduce(q, so_far) == ref_top_reduce(q, so_far)
            if not ring.field.p:
                assert normalized_fractions(got) and normalized_fractions(top)
        # a step cached before this append is the one the list now builds;
        # the memo is keyed by the monomial's id
        fresh = Reducers(ring, so_far)
        for i, step in reducers.steps.items():
            assert ring._ids[ring._negs[i]] == i
            e = -ring._negs[i]
            assert step == _step(fresh.polys[fresh.find(e)], e, ring)
    for e, k in reducers.first.items():
        want = next((i for i, h in enumerate(reducers.heads) if not (e - h) & ring._guard), None)
        if k >= 0:
            assert k == want
        else:
            # no divisor among the first ~k; one may have come after
            assert want is None or want >= ~k


def test_reducers_memo_resumes_after_an_append():
    ring = PolyRing(("x", "y"), Field(7))
    P = ring.parse
    xy = ring.pack((1, 1))
    reducers = Reducers(ring, [ring.zero])
    assert not reducers.polys
    # with no reducer nothing divides: the memo records none among the first 0
    assert reducers.find(xy) == -1 and reducers.first[xy] == ~0
    assert reduce_full(P("x*y + 1"), reducers) == P("x*y + 1")
    reducers.append(P("y^2"))
    assert reduce_full(P("x*y + 1"), reducers) == P("x*y + 1")
    assert reducers.first[xy] == ~1  # the lookup resumed at 0 and saw y^2
    reducers.append(P("x + 3"))
    # x*y, irreducible so far, is divisible by the newest reducer
    assert reduce_full(P("x*y + 1"), reducers) == P("-3*y + 1")
    assert reducers.first[xy] == 1
    reducers.append(P("x"))  # a later divisor never displaces the first
    assert reduce_full(P("x*y"), reducers) == reduce_full(P("x*y"), [P("y^2"), P("x + 3")])
    assert reducers.find(xy) == 1
    with pytest.raises(StructureError):
        reducers.append(PolyRing(("x", "y")).parse("x"))
    with pytest.raises(StructureError):
        reduce_full(PolyRing(("x", "y")).parse("x"), reducers)


def test_reducers_overflow_under_lex():
    # x^2 -> x*y^K -> y^(2K): the second step overflows its packed field
    k = 2**30
    lex = PolyRing(("x", "y"), QQ, LEX)
    reducers = Reducers(lex, [lex.parse(f"x - y^{k}")])
    with pytest.raises(DomainError):
        reduce_full(lex.parse("x^2"), reducers)
    with pytest.raises(DomainError):
        top_reduce(lex.parse("x^2"), reducers)
    # the memo the failed reductions left behind still answers right
    assert reduce_full(lex.parse("x*y + x"), reducers) == lex.parse(f"y^{k + 1} + y^{k}")


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_reductions_after_a_failed_or_early_ended_one(field):
    # a reduction that raises midway, with live terms in its accumulator,
    # or that stops at its first irreducible term leaves the ring's monomial
    # ids as they are, and the next reduction on the ring is right
    k = 2**30
    lex = PolyRing(("x", "y", "z"), field, LEX)
    P = lex.parse
    basis = [P(f"x - 2*y^{k} - z"), P("z^3 + 1"), P("y*z^2 - z")]
    queries = [P("x*y + 2*x + y^3*z"), P("x + y^2 + z^4"), P("y^3 - 2*y*z + z^2")]
    for run in range(2):
        reducers = Reducers(lex, basis)
        with pytest.raises(DomainError):  # x^2 -> x*y^k -> y^(2k) leaves its field
            reduce_full(P("x^2 + y*z + z^2"), reducers)
        for q in queries:
            assert reduce_full(q, reducers) == ref_reduce_full(q, basis)
            # top_reduce leaves live terms behind it
            top = top_reduce(q * P("z^2 + y + 1"), basis[1:])
            assert top == ref_top_reduce(q * P("z^2 + y + 1"), basis[1:])
            assert reduce_full(q, basis[1:]) == ref_reduce_full(q, basis[1:])


@pytest.mark.parametrize("order", DIFF_ORDERS)
def test_rational_rescale_reaches_live_ids_on_both_sides(order):
    # over ℚ a step whose reducer head numerator does not divide the popped
    # numerator rescales every live numerator; here the live monomials' ids
    # lie on both sides of the popped one's, y's below and x*y's above x^2's
    ring = PolyRing(("x", "y"), QQ, order)
    P = ring.parse
    y, x2, xy = (ring.pack(e) for e in ((0, 1), (2, 0), (1, 1)))
    ring.intern(((y, 1),))
    p = P("2*x^2 + 3*x*y + 5*y")
    ring.intern(p.packed)
    ids = ring._ids
    assert ids[-y] < ids[-x2] < ids[-xy]
    g = P("3*x^2 + 7*y^2")
    for basis in ([g], [g, P("x*y + 1")]):
        got = reduce_full(p, basis)
        assert got == ref_reduce_full(p, basis) and normalized_fractions(got)
    assert reduce_full(p, [g]) == P("3*x*y - 14/3*y^2 + 5*y")


@given(diff_case(max_basis=5))
@settings(max_examples=200)
def test_reductions_across_equal_rings_that_are_other_objects(case):
    # an equal ring built separately has its own monomial ids; a reduction
    # takes every id from its reducers' ring, whatever ring p and each
    # reducer carry, and its result is in p's ring
    ring, p, basis = case
    twin = PolyRing(ring.names, ring.field, ring.order)
    twin.intern(tuple((k, 1) for k in sorted(ring.pack(e) for e in _all_exps3)))
    q = Polynomial(twin, p.packed)
    mixed = [Polynomial(twin, g.packed) if i % 2 else g for i, g in enumerate(basis)]
    full, top = ref_reduce_full(p, basis), ref_top_reduce(p, basis)
    for red in (basis, Reducers(ring, basis), mixed, Reducers(twin, mixed)):
        for f in (p, q):
            got = reduce_full(f, red)
            assert got == full and got.ring is f.ring
            assert top_reduce(f, red) == top


# -- the product kernel ----------------------------------------------------------
#
# ``Polynomial.__mul__`` (and ``syzygy.evaluate``) run on one packed
# accumulator with integer numerators over a common denominator; the
# reference below multiplies term by term with the field's own operations and
# sorts a dict once.  Over ℚ the coefficients carry denominators up to 12, so
# the common denominator is not 1.

def ref_mul(p, q):
    of = p.ring.field.of
    acc = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            m = exp_mul(e1, e2)
            acc[m] = of(acc.get(m, 0) + of(c1 * c2))
    live = [(m, v) for m, v in acc.items() if v]
    live.sort(key=lambda t: p.ring.key(t[0]), reverse=True)
    return p.ring.build(live)


def coefficient_types(p):
    return [type(c) for _, c in p.terms]


def field_coeffs(field):
    """Coefficients of the field: fractions with denominators over ℚ."""
    if field.p:
        return st.integers(-9, 9).map(field.of)
    return st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)


@st.composite
def product_case(draw, count=2):
    """A ring over ℚ or GF(7) under one of ``DIFF_ORDERS`` and ``count`` of
    its polynomials, each possibly zero."""
    ring = PolyRing(("x", "y", "z"), draw(st.sampled_from(DIFF_FIELDS)),
                    draw(st.sampled_from(DIFF_ORDERS)))
    poly = st.dictionaries(exps3, field_coeffs(ring.field), max_size=5).map(ring.build)
    return ring, [draw(poly) for _ in range(count)]


@given(product_case())
@settings(max_examples=300)
def test_mul_matches_dict_and_sort(case):
    ring, (p, q) = case
    ctype = int if ring.field.p else Fraction
    for a, b in ((p, q), (q, p), (p, p), (p, ring.zero), (ring.zero, q)):
        got, want = a * b, ref_mul(a, b)
        assert got.terms == want.terms
        assert coefficient_types(got) == coefficient_types(want)
        assert all(t is ctype for t in coefficient_types(got))
    # (p + q)(p - q): the cross terms cancel inside the accumulator, and
    # p*(-p) + p*p, through a sum of two products, cancels to zero
    got = (p + q) * (p - q)
    assert got.terms == (ref_mul(p, p) - ref_mul(q, q)).terms
    assert all(t is ctype for t in coefficient_types(got))
    assert sum_of_products(ring, ((p, -p), (p, p))).is_zero


def test_mul_known_values_over_rationals():
    ring = PolyRing(("x", "y"))
    p = ring.parse("1/2*x + 1/3*y")
    q = ring.parse("3/4*x - 1/2*y")
    got = p * q
    assert got == ring.parse("3/8*x^2 - 1/6*y^2")
    assert coefficient_types(got) == [Fraction, Fraction]
    assert got.terms[1][1] == Fraction(-1, 6)
    # a product whose denominators all cancel still has Fraction coefficients
    got = ring.parse("2/3*x") * ring.parse("3/2*y")
    assert got.terms == (((1, 1), Fraction(1)),) and coefficient_types(got) == [Fraction]


def test_product_overflow_raises_domain_error():
    k = 2**30
    lex = PolyRing(("x", "y"), QQ, LEX)
    # the head product x*y^k fits its fields; the tail product y^(2k) does not
    with pytest.raises(DomainError):
        lex.parse(f"x + y^{k}") * lex.parse(f"y^{k}")
    assert (lex.parse(f"x + y^{k - 1}") * lex.parse(f"y^{k}")).terms[1][0] == (0, 2 * k - 1)
    drl = PolyRing(("x", "y"))
    with pytest.raises(DomainError):  # the degree field overflows
        drl.parse(f"x^{k}") * drl.parse(f"1 + y^{k}")
    with pytest.raises(StructureError):
        drl.parse("x") * lex.parse("x")


def test_shift_overflow_raises_domain_error():
    # mul_term and sub_mul add x^e's packed monomial to each term; under lex
    # the head x*y^k fits its fields while the tail y^k*y^k does not
    k = 2**30
    lex = PolyRing(("x", "y"), QQ, LEX)
    p = lex.parse(f"x + y^{k}")
    with pytest.raises(DomainError):
        p.mul_term((0, k))
    with pytest.raises(DomainError):
        lex.parse("x").sub_mul(Fraction(1), (0, k), p)
    assert p.mul_term((0, k - 1)).terms == (((1, k - 1), 1), ((0, 2 * k - 1), 1))
    drl = PolyRing(("x", "y"))
    with pytest.raises(DomainError):  # the head's degree field overflows
        drl.parse(f"x^{k} + y").mul_term((0, k))
    with pytest.raises(DomainError):
        drl.parse("x").sub_mul(Fraction(1), (0, k), drl.parse(f"x^{k} + y"))


def test_products_leave_the_monomial_caches_alone():
    # polynomials stay packed: a product, a shift, a merge and a reduction
    # unpack none of the monomials they make
    ring = PolyRing(("x", "y", "z"), Field(7))
    p, q = ring.parse("x + 2*y"), ring.parse("y*z + 3*z^2")
    packs, unpacks = dict(ring._packcache), dict(ring._unpackcache)
    prod = p * q
    shifted = q.mul_term((1, 0, 0), 2)
    merged = prod.sub_mul(1, (0, 1, 0), q)
    rest = reduce_full(prod, [p])
    assert ring._packcache == packs and ring._unpackcache == unpacks
    assert prod == ring.parse("x*y*z + 3*x*z^2 + 2*y^2*z + 6*y*z^2")
    assert shifted == ring.parse("2*x*y*z + 6*x*z^2")
    assert merged == prod - ring.parse("y^2*z + 3*y*z^2")
    assert rest.is_zero
