import pytest
from hypothesis import given
from hypothesis import strategies as st

from siggb.polyring import Cmp, MonomialOrder, PolyRing
from siggb.signature import Signature, build_labeled_spol, sig_compare, sig_mul

DRL = MonomialOrder("degrevlex")

exps4 = st.tuples(*([st.integers(0, 5)] * 4))
sigs = st.builds(Signature, exps4, st.integers(1, 4))


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z", "t"))


def e(*exps):
    return tuple(exps)


def test_sig_compare_index_dominates():
    # any term on e2 is below any term on e1
    assert sig_compare(Signature(e(5, 0, 0, 0), 2), Signature(e(0, 0, 0, 0), 1), DRL) is Cmp.LT
    # same index, y < x
    assert sig_compare(Signature(e(0, 1, 0, 0), 1), Signature(e(1, 0, 0, 0), 1), DRL) is Cmp.LT
    s = Signature(e(1, 2, 0, 0), 3)
    assert sig_compare(s, s, DRL) is Cmp.EQ


def test_sig_mul_known_values(ring):
    # z^2 * (x e1) = x z^2 e1
    assert sig_mul(e(0, 0, 2, 0), Signature(e(1, 0, 0, 0), 1)) == Signature(e(1, 0, 2, 0), 1)
    s = Signature(e(2, 1, 0, 0), 2)
    assert sig_mul(e(0, 0, 0, 0), s) == s
    assert sig_mul(e(2, 0, 0, 0), Signature(e(0, 0, 0, 0), 1)) == Signature(e(2, 0, 0, 0), 1)


def test_sig_render(ring):
    assert Signature(e(1, 0, 2, 0), 1).render(ring) == "x*z^2*e1"
    assert Signature(e(0, 0, 0, 0), 3).render(ring) == "e3"


@given(sigs, sigs)
def test_sig_compare_antisymmetric(a, b):
    assert int(sig_compare(a, b, DRL)) == -int(sig_compare(b, a, DRL))
    assert (sig_compare(a, b, DRL) is Cmp.EQ) == (a == b)


@given(sigs, sigs, sigs)
def test_sig_compare_transitive(a, b, c):
    if sig_compare(a, b, DRL) is not Cmp.GT and sig_compare(b, c, DRL) is not Cmp.GT:
        assert sig_compare(a, c, DRL) is not Cmp.GT


@given(exps4, sigs, sigs)
def test_sig_compare_multiplication_compatible(u, a, b):
    assert sig_compare(sig_mul(u, a), sig_mul(u, b), DRL) is sig_compare(a, b, DRL)


@given(exps4, sigs)
def test_sig_mul_monotone(u, s):
    if any(u):
        assert sig_compare(s, sig_mul(u, s), DRL) is Cmp.LT


# -- labeled S-polynomials ------------------------------------------------------

def test_spol_labeled_witness(ring):
    # hc(b)*u_a*wa - hc(a)*u_b*wb, with u_a = x and u_b = y*z the cofactors
    # of lcm(HT(f1), HT(f2)) = x*y*z^3
    from siggb.syzygy import ModuleVector

    f1 = ring.parse("y*z^3 - x^2*t^2")
    f2 = ring.parse("x*z^2 - y^2*t")
    sig = Signature(e(1, 0, 0, 0), 1)
    out = build_labeled_spol(
        sig, e(1, 0, 0, 0), f1, ModuleVector.unit(1, ring),
        e(0, 1, 1, 0), f2, ModuleVector.unit(2, ring)
    )
    assert out.sig == sig
    assert out.witness is not None
    assert out.witness.entries[1] == ring.parse("x")
    assert out.witness.entries[2] == ring.parse("-y*z")
    assert out.poly == ring.parse("x") * f1 - ring.parse("y*z") * f2
