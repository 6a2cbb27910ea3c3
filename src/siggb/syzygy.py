"""Module vectors over the growing basis, syzygies, and rejection certificates.

A ModuleVector is a sparse element of K[x]^(n_G), indexed by 1-based basis
positions.  Syzygies are vectors evaluating to zero; every criterion
rejection corresponds to one, built here and checked entry by entry.

The shift lemma.  A rejection flags a component u*r_k, and its syzygy
depends only on r_k, the criterion and its witness (F5) or rule
(Rewritten), through h, the witness's head term or the rule's gamma: the
criterion applies when h divides u*Gamma(r_k).  Every admissible u is then
a multiple of u_min = max(0, h - Gamma(r_k)), taken field by field.  The
monomial order is multiplicative, so multiplying u by a monomial x^v
multiplies every step of the construction by x^v: the two syzygies, the
entries that reach the bound u*Sig(r_k) and the entries they expand, the
scalar that aligns the heads, and each bound check.  So
cert(u) = x^(u - u_min) * cert(u_min), vector for vector.

``certify_rejection`` builds one template per (position, criterion,
witness or rule) at u_min, checks it once in full, and shifts it for
every rejection without checking the shifted copy again.  The copy passes
exactly when its template does:

- the order is multiplicative and packed addition is exact, so adding
  pack(v) to both sides of a bound comparison keeps its result;
- evaluation is linear, so the shifted vector evaluates to x^v times the
  template's evaluation, and x^v * 0 = 0;
- the rewriter equality multiplies both sides by x^v;
- a shift that leaves a packed field raises DomainError in ``mul_term``
  before any certificate is made.

What still checks every certificate independently is the test that
rebuilds each one from scratch at its own u, and perfbench's re-check of
every certificate in sympy arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .polyring import (
    DomainError,
    Polynomial,
    StructureError,
    exp_div,
    exp_mul,
    shift_terms,
    sum_of_products,
)
from .signature import Signature, sig_key, sig_mul

if TYPE_CHECKING:  # pragma: no cover
    from .f5engine import BasisState, CriticalPair, PairRejected


class CertificateError(RuntimeError):
    """A rejection certificate failed verification (engine bug signal)."""


class ModuleVector:
    """Sparse map from basis position (1-based) to a polynomial coefficient."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries: dict[int, Polynomial] | None = None):
        self.ring = ring
        ent = {}
        if entries:
            for pos, p in entries.items():
                if not p.is_zero:
                    ent[pos] = p
        self.entries = ent

    @classmethod
    def unit(cls, pos: int, ring) -> "ModuleVector":
        return cls(ring, {pos: ring.one})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def positions(self):
        return sorted(self.entries)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and other.entries == self.entries

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        ent = dict(self.entries)
        for pos, p in other.entries.items():
            q = ent.get(pos)
            ent[pos] = p if q is None else q + p
        return ModuleVector(self.ring, ent)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        ent = dict(self.entries)
        for pos, p in other.entries.items():
            q = ent.get(pos)
            ent[pos] = -p if q is None else q - p
        return ModuleVector(self.ring, ent)

    def scale(self, c) -> "ModuleVector":
        return ModuleVector(self.ring, {pos: p.scale(c) for pos, p in self.entries.items()})

    def mul_term(self, e: tuple[int, ...], c=None) -> "ModuleVector":
        """c * x^e * self: e is packed once, and each entry is shifted by
        ``Polynomial.mul_term``'s kernel, ``shift_terms``.  A nonzero c
        zeroes no entry, so no entry is filtered out."""
        ring = self.ring
        p = ring.field.p
        out = ModuleVector(ring)
        if c is not None and not (c % p if p else c):
            return out
        u = ring.pack(e)
        out.entries = {pos: Polynomial(ring, shift_terms(ring, q.packed, u, c))
                       for pos, q in self.entries.items()}
        return out

    def render(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for pos in self.positions():
            p = self.entries[pos]
            if len(p) == 1:
                body = str(p)
                if body.startswith("-"):
                    lead, body = "-", body[1:].strip()
                else:
                    lead = "+"
                body = f"{body}*e{pos}" if body != "1" else f"e{pos}"
            else:
                lead, body = "+", f"({p})*e{pos}"
            parts.append((lead, body))
        first_lead, first_body = parts[0]
        out = ("-" if first_lead == "-" else "") + first_body
        for lead, body in parts[1:]:
            out += f" {'-' if lead == '-' else '+'} {body}"
        return out

    def __repr__(self):
        return f"<{self.render()}>"


def evaluate(v: ModuleVector, state) -> Polynomial:
    """Apply the evaluation map: the sum of entry * stored basis polynomial.

    One call of the product kernel ``polyring.sum_of_products``, with one
    (entry, basis polynomial) product per position: all of them go into one
    packed accumulator, over ℚ as integer numerators over one common
    denominator, and the sum is sorted once.
    """
    products = []
    for pos, coeff in v.entries.items():
        if not 1 <= pos <= state.size:
            raise StructureError(f"unknown basis position {pos}")
        products.append((coeff, state.elements[pos - 1].poly))
    return sum_of_products(v.ring, products)


def _head_key(pos: int, coeff: Polynomial, keys: list) -> tuple[int, int]:
    """The order key of HT(coeff) * Sig(pos), the largest module term of
    coeff * e_pos: the negated index, then the packed product of the head and
    the signature's gamma.  Keys compare as the module term order does, and
    with ``signature.sig_key``.  ``keys`` is ``BasisState.sig_keys``, each
    position's ``sig_key``.

    Only the head counts: terms descend and the order is multiplicative, so
    no later term of coeff gives a larger module term.
    """
    index, gamma = keys[pos]
    return index, coeff.packed[0][0] + gamma


def mht(v: ModuleVector, state) -> Signature:
    """Largest module term of v after expanding positions through signatures."""
    if v.is_zero:
        raise DomainError("zero module vector has no head term")
    for pos in v.entries:
        if not 1 <= pos <= state.size:
            raise StructureError(f"unknown basis position {pos}")
    keys = state.sig_keys
    pos, coeff = max(v.entries.items(), key=lambda pc: _head_key(pc[0], pc[1], keys))
    return sig_mul(coeff.ht, state.elements[pos - 1].sig)


def principal_syzygy(a: int, b: int, state) -> ModuleVector:
    """p_a * e_b - p_b * e_a; evaluates to zero by construction."""
    pa, pb = state.poly(a), state.poly(b)
    return ModuleVector(pa.ring, {b: pa}) - ModuleVector(pa.ring, {a: pb})


# ---------------------------------------------------------------------------
# certificates for rejected pairs

@dataclass
class BoundCheck:
    position: int
    head: int  # packed head term of the entry, unpacked only to render
    kind: str  # "strict" | "flagged" | "crit"
    ok: bool


@dataclass
class Certificate:
    pair: "CriticalPair"
    kind: str  # "f5crit" | "rewrite"
    component: str  # "i" | "j"
    flagged_pos: int
    flagged_u: tuple[int, ...]
    bound_sig: Signature  # u_k * Sig(r_k) of the flagged component
    vector: ModuleVector
    evaluation: Polynomial
    bounds: list[BoundCheck] = field(default_factory=list)
    rewrite_equality: bool | None = None

    @property
    def valid(self) -> bool:
        ok = self.evaluation.is_zero and all(b.ok for b in self.bounds)
        if self.rewrite_equality is not None:
            ok = ok and self.rewrite_equality
        return ok

    def render(self, state) -> str:
        ring = state.ring
        lines = [
            f"certificate pair=({self.pair.i},{self.pair.j}) kind={self.kind} "
            f"comp={self.component} flagged={ring.render_exp(self.flagged_u)}"
            f"*r{self.flagged_pos} bound={self.bound_sig.render(ring)}",
            f"  syzygy: {self.vector.render()}",
            f"  evaluation: {self.evaluation} "
            f"[{'ok' if self.evaluation.is_zero else 'NONZERO'}]",
        ]
        for b in self.bounds:
            rel = "=" if b.kind != "strict" else "<"
            lines.append(
                f"  bound e{b.position}: {ring.render_exp(ring.unpack(b.head))}"
                f"*Sig(r{b.position}) {rel} bound ({b.kind}) [{'ok' if b.ok else 'VIOLATED'}]"
            )
        if self.rewrite_equality is not None:
            lines.append(
                f"  rewriter equality: [{'ok' if self.rewrite_equality else 'VIOLATED'}]"
            )
        lines.append(f"  verdict: {'valid' if self.valid else 'INVALID'}")
        return "\n".join(lines)


def _creation_syzygy(pos: int, state) -> ModuleVector:
    """w_pos - e_pos for a derived element, the zero vector for an input;
    built once per position and kept in ``state.creation_syzygies``."""
    s = state.creation_syzygies.get(pos)
    if s is None:
        ring = state.ring
        if pos <= state.m:
            s = ModuleVector(ring)
        else:
            w = state.element(pos).witness
            if w is None:
                raise DomainError("certificate construction requires witness tracking")
            s = w - ModuleVector.unit(pos, ring)
        state.creation_syzygies[pos] = s
    return s


def _offenders(v: ModuleVector, state, bound: Signature, skip: set[int]):
    """Entries whose head module term reaches the bound, keyed by position:
    (head term, head coefficient) of each."""
    bkey = sig_key(bound, v.ring)
    keys = state.sig_keys
    return {
        pos: (coeff.ht, coeff.hc)
        for pos, coeff in v.entries.items()
        if pos not in skip and _head_key(pos, coeff, keys) >= bkey
    }


def _expand_at(v: ModuleVector, pos: int, term: tuple[int, ...], coeff, state) -> ModuleVector:
    """Rewrite coeff*x^term*e_pos through the creation syzygy of pos."""
    s = _creation_syzygy(pos, state)
    return v + s.mul_term(term, coeff)


def _template(pair, verdict, state, u_k: tuple[int, ...]) -> Certificate:
    """The certificate of the rejection of the component u_k*r_k, built from
    scratch and checked against its bound u_k*Sig(r_k).

    For a component flagged by the F5 criterion the second syzygy is the
    principal one of (witness element, input k); for the Rewritten criterion
    it is the creation syzygy of the rule's element (or the recorded reduction
    trail of a zero reduction).  The two are combined so their module head
    terms cancel, and entries that still reach the component's multiplied
    signature are expanded down the creation chains.  The result is checked
    in full: its evaluation, one bound per entry and, for a Rewritten
    certificate, the rewriter equality (lambda times the module head term of
    the rule's syzygy equals the bound).  Raises CertificateError when any
    of them fails.
    """
    ring = state.ring
    field_ = ring.field
    keys = state.sig_keys
    pos_k = pair.component(verdict.component)[1]
    sig_k = state.sig(pos_k)
    bound = sig_mul(u_k, sig_k)
    where = f"{ring.render_exp(u_k)}*r{pos_k}"

    a_vec = _creation_syzygy(pos_k, state).mul_term(u_k)
    rewriter = None
    if verdict.kind == "f5crit":
        crit_pos = verdict.witness
        lam = exp_div(exp_mul(u_k, sig_k.gamma), state.poly(crit_pos).ht)
        b_vec = principal_syzygy(crit_pos, sig_k.index, state).mul_term(lam)
    else:
        rule = verdict.rule
        lam = exp_div(exp_mul(u_k, sig_k.gamma), rule.gamma)
        if isinstance(rule.label, int):
            crit_pos = rule.label
            s_rew = _creation_syzygy(crit_pos, state)
        else:
            crit_pos = None
            s_rew = state.syzygy_trails[rule.label]
        rewriter = sig_mul(lam, mht(s_rew, state))
        b_vec = s_rew.mul_term(lam)

    skip_a = {pos_k}
    skip_b = {crit_pos} if crit_pos is not None else set()
    distinguished = skip_a | skip_b

    # Align the two syzygies: expand offending entries down the creation
    # chains until the head coefficient dictionaries are proportional, then
    # cancel.  The scalar accounts for monic normalization along the chains.
    # Each syzygy's module head term is the bound and an expansion replaces
    # a head by lower terms, so no entry passes the bound: the offenders are
    # the entries whose head reaches it exactly.
    budget = 4 * state.size + 8
    for _ in range(budget):
        oa = _offenders(a_vec, state, bound, skip_a)
        ob = _offenders(b_vec, state, bound, skip_b)
        if a_vec.is_zero or not oa:
            rho = field_.one
            break
        if oa.keys() == ob.keys():
            ratios = {field_.of(oa[p][1] * field_.inv(ob[p][1])) for p in oa}
            if len(ratios) == 1:
                rho = ratios.pop()
                break
        expandable = [p for p in oa.keys() | ob.keys() if p > state.m]
        if not expandable:
            raise CertificateError(f"cannot align syzygy head terms for {where}")
        p = max(expandable)
        if p in oa:
            a_vec = _expand_at(a_vec, p, *oa[p], state)
        if p in ob:
            b_vec = _expand_at(b_vec, p, *ob[p], state)
    else:  # pragma: no cover
        raise CertificateError("syzygy head alignment did not terminate")

    vec = a_vec - b_vec.scale(rho)

    # Residual offenders (e.g. the rewriter chain of an input component) are
    # expanded until they merge into a distinguished coordinate or cancel.
    for _ in range(budget * (state.size + 2)):
        offs = _offenders(vec, state, bound, distinguished)
        expandable = {p: off for p, off in offs.items() if p > state.m}
        if not expandable:
            if offs:
                raise CertificateError(f"unresolvable head term in certificate for {where}")
            break
        p = max(expandable)
        vec = _expand_at(vec, p, *expandable[p], state)
    else:  # pragma: no cover
        raise CertificateError("certificate expansion did not terminate")

    bkey = sig_key(bound, ring)
    bounds: list[BoundCheck] = []
    for pos in vec.positions():
        coeff = vec.entries[pos]
        key, head = _head_key(pos, coeff, keys), coeff.packed[0][0]
        if pos == pos_k:
            bounds.append(BoundCheck(pos, head, "flagged", key <= bkey))
        elif pos == crit_pos:
            bounds.append(BoundCheck(pos, head, "crit", key <= bkey))
        else:
            bounds.append(BoundCheck(pos, head, "strict", key < bkey))

    cert = Certificate(
        pair=pair,
        kind=verdict.kind,
        component=verdict.component,
        flagged_pos=pos_k,
        flagged_u=u_k,
        bound_sig=bound,
        vector=vec,
        evaluation=evaluate(vec, state),
        bounds=bounds,
        rewrite_equality=None if rewriter is None else rewriter == bound,
    )
    if not cert.valid:
        raise CertificateError(
            f"certificate for pair ({pair.i},{pair.j}) failed verification:\n"
            + cert.render(state)
        )
    return cert


def _least_multiplier(pos_k: int, verdict, state) -> tuple[int, ...]:
    """u_min = max(0, h - Gamma(r_k)) field by field, h the witness's head
    term (F5) or the rule's gamma (Rewritten): the least u for which h
    divides u * Gamma(r_k), so every u the criterion flags is a multiple."""
    h = state.poly(verdict.witness).ht if verdict.kind == "f5crit" else verdict.rule.gamma
    return tuple(x - g if x > g else 0 for x, g in zip(h, state.sig(pos_k).gamma))


def certify_rejection(pair, verdict, state) -> Certificate:
    """The certificate of a criterion rejection: its template shifted.

    The certificate of the component u*r_k is x^v times the one at the
    least multiplier u_min, v = u - u_min (module docstring).  One template
    per (position, criterion, witness or rule) is built at u_min and
    checked by ``_template``, and only a template that passed is kept in
    ``state.cert_templates``.  Every rejection then shifts it.  A kept
    template's flagged u is u_min, so ``_least_multiplier`` runs only for a
    key without one, and v is checked before any template is built.  The
    shifted certificate carries the pair, the criterion and the component
    of this rejection, the flagged position with its own u, the bound and
    the vector times x^v, and each bound check with its packed head plus
    pack(v) and its verdict kept; the zero evaluation and the rewriter
    equality carry over.  No evaluation and no key comparison is made here.
    """
    comp = verdict.component
    u_k, pos_k = pair.component(comp)
    crit = verdict.witness if verdict.kind == "f5crit" else verdict.rule.label
    key = (pos_k, verdict.kind, crit)
    tpl = state.cert_templates.get(key)
    u_min = tpl.flagged_u if tpl is not None else _least_multiplier(pos_k, verdict, state)
    v = exp_div(u_k, u_min)
    if v is None:
        raise CertificateError(
            f"the {verdict.kind} verdict on pair ({pair.i},{pair.j}) does not "
            f"apply to {state.ring.render_exp(u_k)}*r{pos_k}"
        )
    if tpl is None:
        tpl = state.cert_templates[key] = _template(pair, verdict, state, u_min)
    shift = state.ring.pack(v)
    return Certificate(
        pair=pair,
        kind=tpl.kind,
        component=comp,
        flagged_pos=pos_k,
        flagged_u=u_k,
        bound_sig=sig_mul(v, tpl.bound_sig),
        vector=tpl.vector.mul_term(v),
        evaluation=tpl.evaluation,
        bounds=[BoundCheck(b.position, b.head + shift, b.kind, b.ok) for b in tpl.bounds],
        rewrite_equality=tpl.rewrite_equality,
    )
