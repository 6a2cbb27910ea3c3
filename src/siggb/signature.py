"""Module terms, signatures, and labeled polynomials.

A signature is a coefficient-free module term ``gamma * e_index``.  The order
puts a *larger* generator index lower: any term on e_2 is below any term on
e_1; equal indices compare by the monomial order on gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import (
    Cmp,
    DomainError,
    MonomialOrder,
    Polynomial,
    compare,
    exp_div,
    exp_mul,
    lcm_term,
    spol,
)


class SignatureCollisionError(DomainError):
    """Both components of an S-pair carry the same module term."""


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

    @property
    def index(self) -> int:
        return self.sig.index


def build_labeled_spol(sig: Signature, a: Polynomial, wa, b: Polynomial, wb) -> LabeledPoly:
    """The labeled S-polynomial hc(b)*u_a*a - hc(a)*u_b*b with signature sig,
    u_a and u_b the cofactors of lcm(HT(a), HT(b)); its witness is
    hc(b)*u_a*wa - hc(a)*u_b*wb when both witnesses are given, else None.

    The one construction behind ``spol_labeled`` and the engine's pair and
    split S-polynomials; the caller picks the signature.
    """
    u_a, u_b, s = spol(a, b)
    witness = None
    if wa is not None and wb is not None:
        witness = wa.mul_term(u_a, b.hc) - wb.mul_term(u_b, a.hc)
    return LabeledPoly(sig, s, witness)


def spol_labeled(r1: LabeledPoly, r2: LabeledPoly) -> LabeledPoly:
    """Labeled S-polynomial; the result carries the larger multiplied signature.

    Arguments are swapped if needed so that the second component's multiplied
    signature is the smaller one.  Equal module terms are rejected.
    When both witnesses are present the result carries the combined witness.
    """
    p1, p2 = r1.poly, r2.poly
    if p1.is_zero or p2.is_zero:
        raise DomainError("S-polynomial of a zero labeled polynomial")
    l = lcm_term(p1.ht, p2.ht)
    s1 = sig_mul(exp_div(l, p1.ht), r1.sig)
    s2 = sig_mul(exp_div(l, p2.ht), r2.sig)
    c = sig_compare(s1, s2, p1.ring)
    if c is Cmp.EQ:
        # proportional polynomials cancel exactly; anything else is ambiguous
        _, _, s = spol(p1, p2)
        if not s.is_zero:
            raise SignatureCollisionError(
                f"signature collision on {s1.gamma}*e{s1.index}"
            )
    if c is Cmp.LT:
        r1, r2 = r2, r1
        s1 = s2
    return build_labeled_spol(s1, r1.poly, r1.witness, r2.poly, r2.witness)
