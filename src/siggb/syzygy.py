"""Module vectors over the growing basis, syzygies, and rejection certificates.

A ModuleVector is a sparse element of K[x]^(n_G), indexed by 1-based basis
positions.  Syzygies are vectors evaluating to zero; every criterion
rejection corresponds to one, built here and checked entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .polyring import DomainError, Polynomial, StructureError, exp_div, exp_mul, sum_of_products
from .signature import Signature, sig_mul

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

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.ring, {pos: -p for pos, p in self.entries.items()})

    def scale(self, c) -> "ModuleVector":
        return ModuleVector(self.ring, {pos: p.scale(c) for pos, p in self.entries.items()})

    def mul_term(self, e: tuple[int, ...], c=None) -> "ModuleVector":
        return ModuleVector(
            self.ring, {pos: p.mul_term(e, c) for pos, p in self.entries.items()}
        )

    def mul_poly(self, q: Polynomial) -> "ModuleVector":
        return ModuleVector(self.ring, {pos: p * q for pos, p in self.entries.items()})

    def render(self, ring=None) -> str:
        ring = ring or self.ring
        if not self.entries:
            return "0"
        parts = []
        for pos in self.positions():
            p = self.entries[pos]
            if len(p.terms) == 1:
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
        products.append((coeff, state.poly(pos)))
    return sum_of_products(v.ring, products)


def _head_key(pos: int, coeff: Polynomial, state) -> tuple[int, int]:
    """The order key of HT(coeff) * Sig(pos), the largest module term of
    coeff * e_pos: the negated index, then the packed product of the head and
    the signature's gamma.  Keys compare as the module term order does.

    Only the head counts: terms descend and the order is multiplicative, so
    no later term of coeff gives a larger module term.
    """
    sig = state.sig(pos)
    pack = coeff.ring.pack
    return -sig.index, pack(coeff.terms[0][0]) + pack(sig.gamma)


def _sig_key(sig: Signature, ring) -> tuple[int, int]:
    """The order key of a signature, comparable with ``_head_key``."""
    return -sig.index, ring.pack(sig.gamma)


def mht(v: ModuleVector, state) -> Signature:
    """Largest module term of v after expanding positions through signatures."""
    if v.is_zero:
        raise DomainError("zero module vector has no head term")
    pos, coeff = max(v.entries.items(), key=lambda pc: _head_key(pc[0], pc[1], state))
    return sig_mul(coeff.ht, state.sig(pos))


def principal_syzygy(a: int, b: int, state) -> ModuleVector:
    """p_a * e_b - p_b * e_a; evaluates to zero by construction."""
    pa, pb = state.poly(a), state.poly(b)
    return ModuleVector(pa.ring, {b: pa}) - ModuleVector(pa.ring, {a: pb})


# ---------------------------------------------------------------------------
# certificates for rejected pairs

@dataclass
class BoundCheck:
    position: int
    term: tuple[int, ...]
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
    mht_a: Signature | None
    mht_b: Signature | None
    scale: object
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
            f"  syzygy: {self.vector.render(ring)}",
            f"  evaluation: {self.evaluation} "
            f"[{'ok' if self.evaluation.is_zero else 'NONZERO'}]",
        ]
        for b in self.bounds:
            rel = "=" if b.kind != "strict" else "<"
            lines.append(
                f"  bound e{b.position}: {ring.render_exp(b.term)}*Sig(r{b.position}) "
                f"{rel} bound ({b.kind}) [{'ok' if b.ok else 'VIOLATED'}]"
            )
        if self.rewrite_equality is not None:
            lines.append(
                f"  rewriter equality: [{'ok' if self.rewrite_equality else 'VIOLATED'}]"
            )
        lines.append(f"  verdict: {'valid' if self.valid else 'INVALID'}")
        return "\n".join(lines)


def _creation_syzygy(pos: int, state) -> ModuleVector:
    """w_pos - e_pos for a derived element, the zero vector for an input."""
    ring = state.ring
    if pos <= state.m:
        return ModuleVector(ring)
    w = state.element(pos).witness
    if w is None:
        raise DomainError("certificate construction requires witness tracking")
    return w - ModuleVector.unit(pos, ring)


def _offenders(v: ModuleVector, state, bound: Signature, skip: set[int]):
    """Entries whose head module term reaches the bound, keyed by position:
    (head term, head coefficient) of each."""
    bkey = _sig_key(bound, v.ring)
    return {
        pos: coeff.terms[0]
        for pos, coeff in v.entries.items()
        if pos not in skip and _head_key(pos, coeff, state) >= bkey
    }


def _expand_at(v: ModuleVector, pos: int, term: tuple[int, ...], coeff, state) -> ModuleVector:
    """Rewrite coeff*x^term*e_pos through the creation syzygy of pos."""
    s = _creation_syzygy(pos, state)
    return v + s.mul_term(term, coeff)


def certify_rejection(pair, verdict, state) -> Certificate:
    """Materialize the syzygy behind a criterion rejection and verify it.

    For a component u*r_k flagged by the F5 criterion the second syzygy is the
    principal one of (witness element, input k); for the Rewritten criterion
    it is the creation syzygy of the rule's element (or the recorded reduction
    trail of a zero reduction).  The two are combined so their module head
    terms cancel, then every entry is checked against the component's
    multiplied signature.
    """
    ring = state.ring
    field_ = ring.field
    comp = verdict.component
    if comp == "i":
        u_k, pos_k = pair.u_i, pair.i
    else:
        u_k, pos_k = pair.u_j, pair.j
    sig_k = state.sig(pos_k)
    bound = sig_mul(u_k, sig_k)
    bkey = _sig_key(bound, ring)
    k0 = sig_k.index

    a_vec = _creation_syzygy(pos_k, state).mul_term(u_k)
    rewrite_equality = None
    if verdict.kind == "f5crit":
        prev = verdict.witness
        lam = exp_div(exp_mul(u_k, sig_k.gamma), state.poly(prev).ht)
        b_vec = principal_syzygy(prev, k0, state).mul_term(lam)
        crit_pos = prev
    else:
        rule = verdict.rule
        lam = exp_div(exp_mul(u_k, sig_k.gamma), rule.gamma)
        if isinstance(rule.label, int):
            crit_pos = rule.label
            s_rew = _creation_syzygy(crit_pos, state)
        else:
            crit_pos = None
            s_rew = state.syzygy_trails[rule.label]
        rewrite_equality = sig_mul(lam, mht(s_rew, state)) == bound
        b_vec = s_rew.mul_term(lam)

    skip_a = {pos_k}
    skip_b = {crit_pos} if crit_pos is not None else set()
    distinguished = skip_a | skip_b

    mht_a = None if a_vec.is_zero else mht(a_vec, state)
    mht_b = None if b_vec.is_zero else mht(b_vec, state)

    # Align the two syzygies: expand offending entries down the creation
    # chains until the head coefficient dictionaries are proportional, then
    # cancel.  The scalar accounts for monic normalization along the chains.
    def offender_coeffs(v, skip):
        return {
            pos: coeff.hc
            for pos, coeff in v.entries.items()
            if pos not in skip and _head_key(pos, coeff, state) == bkey
        }

    budget = 4 * state.size + 8
    for _ in range(budget):
        ca = offender_coeffs(a_vec, skip_a)
        cb = offender_coeffs(b_vec, skip_b)
        if a_vec.is_zero or not ca:
            rho = field_.one
            break
        if set(ca) == set(cb):
            ratios = {pos: field_.div(ca[pos], cb[pos]) for pos in ca}
            vals = list(ratios.values())
            if all(v == vals[0] for v in vals):
                rho = vals[0]
                break
        expandable = [p for p in set(ca) | set(cb) if p > state.m]
        if not expandable:
            raise CertificateError(
                f"cannot align syzygy head terms for pair ({pair.i},{pair.j})"
            )
        p = max(expandable)
        if p in ca:
            a_vec = _expand_at(a_vec, p, *a_vec.entries[p].terms[0], state)
        if p in cb:
            b_vec = _expand_at(b_vec, p, *b_vec.entries[p].terms[0], state)
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
                raise CertificateError(
                    f"unresolvable head term in certificate for pair "
                    f"({pair.i},{pair.j})"
                )
            break
        p = max(expandable)
        e, c = expandable[p]
        vec = _expand_at(vec, p, e, c, state)
    else:  # pragma: no cover
        raise CertificateError("certificate expansion did not terminate")

    value = evaluate(vec, state)

    bounds: list[BoundCheck] = []
    for pos in vec.positions():
        coeff = vec.entries[pos]
        term = coeff.ht
        key = _head_key(pos, coeff, state)
        if pos == pos_k:
            bounds.append(BoundCheck(pos, term, "flagged", key <= bkey))
        elif crit_pos is not None and pos == crit_pos:
            bounds.append(BoundCheck(pos, term, "crit", key <= bkey))
        else:
            bounds.append(BoundCheck(pos, term, "strict", key < bkey))

    cert = Certificate(
        pair=pair,
        kind=verdict.kind,
        component=comp,
        flagged_pos=pos_k,
        flagged_u=u_k,
        bound_sig=bound,
        vector=vec,
        evaluation=value,
        mht_a=mht_a,
        mht_b=mht_b,
        scale=rho,
        bounds=bounds,
        rewrite_equality=rewrite_equality,
    )
    if not cert.valid:
        raise CertificateError(
            f"certificate for pair ({pair.i},{pair.j}) failed verification:\n"
            + cert.render(state)
        )
    return cert
