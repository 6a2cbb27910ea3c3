"""The relaxed "completely normalized" pair check and its empirical refutation.

The relaxation would also discard a pair component when an *equal-index*
element divides its signature term while satisfying a strict head-term
inequality (clause b).  That clause is provably vacuous, so this module never
filters pairs: it shadows real runs and reports that clause (b) fired zero
times, i.e. the relaxed check agrees with the plain one everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .polyring import Cmp, compare, exp_divides, exp_mul
from .f5engine import (
    BasisState,
    CriticalPair,
    PairCreated,
    Snapshot,
    is_normalized,
)
from .signature import Signature


@dataclass
class CNResult:
    completely_normalized: bool
    via: str | None = None  # "a" | "b"
    component: str | None = None
    witness: int | None = None


@dataclass
class ElementRow:
    pos: int
    index: int
    gamma: tuple[int, ...]
    relation: Cmp  # HT(f_k0) * gamma  vs  HT(p)
    expected: Cmp

    @property
    def ok(self) -> bool:
        return self.relation is self.expected


@dataclass
class PairScan:
    pair: CriticalPair
    normalized: bool
    completely: bool
    part_b: bool

    @property
    def agree(self) -> bool:
        return self.normalized == self.completely


@dataclass
class ImprovedCheckReport:
    rows: list[ElementRow] = field(default_factory=list)
    pair_scans: list[PairScan] = field(default_factory=list)
    part_b_firings: int = 0

    @property
    def lemma_holds(self) -> bool:
        return (
            self.part_b_firings == 0
            and all(r.ok for r in self.rows)
            and all(s.agree for s in self.pair_scans)
        )

    def lines(self, state: BasisState) -> list[str]:
        ring = state.ring
        out = [f"improved-criterion part(b) firings: {self.part_b_firings}"]
        out.append(f"improved-criterion agreement: {'yes' if self.lemma_holds else 'NO'}")
        for r in self.rows:
            rel = {Cmp.GT: ">", Cmp.EQ: "=", Cmp.LT: "<"}[r.relation]
            out.append(
                f"  r{r.pos}: HT(f{r.index})*{ring.render_exp(r.gamma)} {rel} HT(p{r.pos})"
                f" [{'ok' if r.ok else 'UNEXPECTED'}]"
            )
        return out


def _component_part_b(
    msig: Signature, state: BasisState, snapshot: Snapshot | None = None
):
    """Clause (b): an equal-index element whose head divides the signature term
    and whose own signature satisfies HT(f_k0) * Gamma(Sig(prev)) < HT(p_prev),
    for the component with multiplied signature msig.

    Only the elements of index k0 = msig.index are walked, up to the
    snapshot's last position.  The input of index k0 is among them whether
    or not the snapshot's active range holds it; it never fires, since its
    gamma is 1.
    """
    k0, t = msig.index, msig.gamma
    ht_f = state.poly(k0).ht
    ring = state.ring
    max_pos = snapshot.max_pos if snapshot else state.size
    for prev in state.index_positions.get(k0, ()):
        if prev > max_pos:
            break
        pe = state.elements[prev - 1]
        if not exp_divides(pe.poly.ht, t):
            continue
        lhs = exp_mul(ht_f, pe.sig.gamma)
        if compare(lhs, pe.poly.ht, ring) is Cmp.LT:
            return prev
    return None


def completely_normalized(
    pair: CriticalPair, state: BasisState, snapshot: Snapshot | None = None
) -> CNResult:
    """Literal evaluation of both clauses of the relaxed check."""
    nv = is_normalized(pair, state, snapshot)
    if not nv.normalized:
        return CNResult(False, "a", nv.component, nv.witness)
    for comp in ("i", "j"):
        prev = _component_part_b(pair.msig(comp), state, snapshot)
        if prev is not None:
            return CNResult(False, "b", comp, prev)
    return CNResult(True)


def scan_run(state: BasisState) -> ImprovedCheckReport:
    """Post-run scan of a completed engine state.

    Every derived element must satisfy the strict head-term inequality, every
    input the equality, and re-running both pair checks on each recorded pair
    (against the basis as it stood at creation) must never disagree.
    """
    report = ImprovedCheckReport()
    ring = state.ring
    for pos in range(1, state.size + 1):
        elt = state.element(pos)
        k0 = elt.sig.index
        lhs = exp_mul(state.poly(k0).ht, elt.sig.gamma)
        rel = compare(lhs, elt.poly.ht, ring)
        expected = Cmp.EQ if pos <= state.m else Cmp.GT
        report.rows.append(ElementRow(pos, k0, elt.sig.gamma, rel, expected))
    for ev in state.events:
        if not isinstance(ev, PairCreated):
            continue
        pair = ev.pair
        snap = pair.snapshot
        cn = completely_normalized(pair, state, snap)
        part_b = cn.via == "b"
        if part_b:
            report.part_b_firings += 1
        report.pair_scans.append(
            PairScan(pair, cn.via != "a", cn.completely_normalized, part_b)
        )
    return report
