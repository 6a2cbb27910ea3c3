"""The relaxed "completely normalized" pair check and its empirical refutation.

The relaxation would also discard a pair component when an *equal-index*
element divides its signature term while satisfying a strict head-term
inequality (clause b).  That clause is provably vacuous, so this module never
filters pairs: it shadows real runs and reports that clause (b) fired zero
times, i.e. the relaxed check agrees with the plain one everywhere.

Clause (b)'s inequality belongs to the element, not to the pair: it is the
relation of the element's row, which the scan computes once per element.  So
clause (b) can name only an element whose row reads "<"; on a correct run
there are none.  Clause (a) is the plain F5 criterion, which the engine ran
on every pair at creation: each component record keeps its verdict, and
``f5_hit`` reads a pair's two.  The scan takes each pair's clause (a)
verdict from its records and evaluates both clauses only when some row
reads "<".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .polyring import Cmp, compare, exp_divides, exp_mul
from .f5engine import BasisState, CriticalPair, PairCreated, f5_hit
from .signature import Signature


@dataclass(slots=True)
class CNResult:
    completely_normalized: bool
    via: str | None = None  # "a" | "b"
    component: str | None = None
    witness: int | None = None


@dataclass(slots=True)
class ElementRow:
    pos: int
    index: int
    gamma: tuple[int, ...]
    relation: Cmp  # HT(f_k0) * gamma  vs  HT(p)
    expected: Cmp

    @property
    def ok(self) -> bool:
        return self.relation is self.expected


@dataclass(slots=True)
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


def _element_rows(state: BasisState) -> list[ElementRow]:
    """One row per element p: HT(f_k0) * Gamma(Sig(p)) against HT(p), with
    k0 = p's own index.  Inputs expect equality, derived elements ">"."""
    ring, rows = state.ring, []
    for pos, elt in enumerate(state.elements, 1):
        k0, gamma = elt.sig.index, elt.sig.gamma
        rel = compare(exp_mul(state.poly(k0).ht, gamma), elt.poly.ht, ring)
        rows.append(ElementRow(pos, k0, gamma, rel, Cmp.EQ if pos <= state.m else Cmp.GT))
    return rows


def _part_b_candidates(rows: list[ElementRow]) -> dict[int, list[int]]:
    """By index, the ascending positions whose row reads "<": the only
    elements clause (b) can name.  Empty on a correct run."""
    out: dict[int, list[int]] = {}
    for r in rows:
        if r.relation is Cmp.LT:
            out.setdefault(r.index, []).append(r.pos)
    return out


def _component_part_b(
    msig: Signature, state: BasisState, snapshot: int | None = None, candidates=None
):
    """Clause (b): an equal-index element whose head divides the signature term
    and whose own signature satisfies HT(f_k0) * Gamma(Sig(p_prev)) < HT(p_prev),
    for the component with multiplied signature msig; the first such position.

    The inequality depends on prev alone, and it is the relation of prev's
    row (``_element_rows``), so only the positions of index k0 = msig.index
    whose row reads "<" are walked (``candidates``, built from the basis when
    not given), up to position snapshot, or all of them without one.  On a
    correct run there are none.
    """
    if candidates is None:
        candidates = _part_b_candidates(_element_rows(state))
    max_pos = state.size if snapshot is None else snapshot
    for prev in candidates.get(msig.index, ()):
        if prev > max_pos:
            break
        if exp_divides(state.elements[prev - 1].poly.ht, msig.gamma):
            return prev
    return None


def completely_normalized(
    pair: CriticalPair, state: BasisState, snapshot: int | None = None, candidates=None
) -> CNResult:
    """Literal evaluation of both clauses of the relaxed check.  Clause (a) is
    ``f5_hit``, which takes no snapshot; ``snapshot`` bounds clause (b)
    alone.  ``candidates`` are clause (b)'s (``_part_b_candidates``), built
    from the basis when not given."""
    hit = f5_hit(pair, state)
    if hit:
        return CNResult(False, "a", *hit)
    for comp in ("i", "j"):
        prev = _component_part_b(pair.msig(comp), state, snapshot, candidates)
        if prev is not None:
            return CNResult(False, "b", comp, prev)
    return CNResult(True)


def scan_run(state: BasisState) -> ImprovedCheckReport:
    """Post-run scan of a completed engine state.

    Every derived element must satisfy the strict head-term inequality, every
    input the equality, and both pair checks on each recorded pair (clause
    (b) against the basis as it stood at creation) must never disagree.

    One walk of the ``PairCreated`` events gives every pair its
    ``PairScan``, in order.  A pair's clause (a) verdict is the one its
    component records keep (``f5_hit``): pair creation asked it of every
    pair, so the scan reads it and asks the criterion nothing.  Clause (b)
    can fire only at an element whose row reads "<", so
    ``completely_normalized`` is asked only when some row does; on a
    correct run none does.
    """
    report = ImprovedCheckReport(rows=_element_rows(state))
    candidates = _part_b_candidates(report.rows)
    scans = report.pair_scans
    for pair in state.events:
        if not isinstance(pair, PairCreated):
            continue
        if candidates:
            cn = completely_normalized(pair, state, pair.snapshot, candidates)
            part_b = cn.via == "b"
            report.part_b_firings += part_b
            scans.append(PairScan(pair, cn.via != "a", cn.completely_normalized, part_b))
        else:
            normalized = f5_hit(pair, state) is None
            scans.append(PairScan(pair, normalized, normalized, False))
    return report
