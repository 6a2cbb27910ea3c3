"""Module terms, signatures, and labeled polynomials.

A signature is a coefficient-free module term ``gamma * e_index``.  The order
puts a *larger* generator index lower: any term on e_2 is below any term on
e_1; equal indices compare by the monomial order on gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import Cmp, MonomialOrder, Polynomial, compare, exp_mul


@dataclass(frozen=True, slots=True)
class Signature:
    gamma: tuple[int, ...]
    index: int

    def render(self, ring) -> str:
        mono = ring.render_exp(self.gamma)
        if mono == "1":
            return f"e{self.index}"
        return f"{mono}*e{self.index}"


def sig_compare(a: Signature, b: Signature, order: MonomialOrder) -> Cmp:
    """Index-first module term order: larger index is smaller.

    ``order`` is a ``MonomialOrder`` or a ``PolyRing``, whose ``key`` is the
    packed monomial; the engine passes its ring.
    """
    if a.index != b.index:
        return Cmp.LT if a.index > b.index else Cmp.GT
    return compare(a.gamma, b.gamma, order)


def sig_mul(u: tuple[int, ...], s: Signature) -> Signature:
    return Signature(exp_mul(u, s.gamma), s.index)


def sig_key(s: Signature, order: MonomialOrder):
    """Sort key ascending in the module term order, ``order`` as in
    ``sig_compare``: for a ring, (-index, packed gamma), the one signature
    key of the engine and its certificates."""
    return (-s.index, order.key(s.gamma))


@dataclass(slots=True)
class LabeledPoly:
    """A signature together with a polynomial, optionally with a full
    module-vector witness (certificate mode)."""

    sig: Signature
    poly: Polynomial
    witness: object | None = None


def build_labeled_spol(sig: Signature, u_a, a: Polynomial, wa, u_b, b: Polynomial, wb):
    """The labeled S-polynomial hc(b)*u_a*a - hc(a)*u_b*b with signature sig,
    for u_a and u_b the cofactors of lcm(HT(a), HT(b)), which the caller
    already holds; its witness is hc(b)*u_a*wa - hc(a)*u_b*wb when both
    witnesses are given, else None.

    The one construction behind the engine's pair and split S-polynomials:
    the caller picks the signature and passes the cofactors.
    """
    s = a.mul_term(u_a, b.hc).sub_mul(a.hc, u_b, b)
    witness = None
    if wa is not None and wb is not None:
        witness = wa.mul_term(u_a, b.hc) - wb.mul_term(u_b, a.hc)
    return LabeledPoly(sig, s, witness)
