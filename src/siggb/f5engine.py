"""Incremental signature-based Groebner basis engine.

Generators are processed from the last index up to the first; critical pairs
are filtered by the F5 criterion (not normalized) and the Rewritten criterion,
and survivors go through signature-safe top reduction.  All discard decisions
are recorded as structured events that render to a line-oriented trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dfield
from itertools import chain
from typing import Iterable, Sequence

from .polyring import (
    Cmp,
    DomainError,
    MonomialOrder,
    Polynomial,
    StructureError,
    compare,
    exp_degree,
    exp_div,
    exp_divides,
    exp_mask,
    lcm_term,
    _pack_reducer,
    _packed,
    _settle,
    _sub_tail,
    minimal_basis,
    reduced_basis,
)
from .signature import (
    LabeledPoly,
    Signature,
    build_labeled_spol,
    sig_compare,
    sig_key,
    sig_mul,
)
from .syzygy import ModuleVector, certify_rejection, evaluate, mht


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineOptions:
    """Knobs for the choices the algorithm's description leaves open."""

    certify: bool = False              # carry module-vector witnesses
    validate_witnesses: bool = False   # check admissibility after every step
    check_on_creation: bool = True     # run both criteria at pair creation
    recheck_on_pop: bool = True        # Rewritten again when the pair is popped;
                                       # F5 too, unless checked on creation
    max_elements: int = 4000           # safety valve for runaway runs


@dataclass
class Stats:
    pairs_created: int = 0
    rejected_not_normalized: int = 0
    rejected_rewritable: int = 0
    signature_collisions: int = 0
    reductions_to_zero: int = 0
    reduction_steps: int = 0
    splits: int = 0
    elements_added: int = 0

    def lines(self) -> list[str]:
        return [
            f"pairs created: {self.pairs_created}",
            f"rejected not-normalized: {self.rejected_not_normalized}",
            f"rejected rewritable: {self.rejected_rewritable}",
            f"signature collisions: {self.signature_collisions}",
            f"reductions to zero: {self.reductions_to_zero}",
            f"reduction steps: {self.reduction_steps}",
            f"splits: {self.splits}",
            f"elements added: {self.elements_added}",
        ]


@dataclass(frozen=True, slots=True)
class Snapshot:
    """What the basis looked like when a pair was created."""

    max_pos: int
    min_index: int
    rule_seq: int


@dataclass
class RewriteRule:
    gamma: tuple[int, ...]
    index: int
    seq: int
    label: object = None  # basis position, or "syzygy:<n>" for zero reductions
    mask: int = dfield(init=False, repr=False)  # divisor mask of gamma

    def __post_init__(self):
        self.mask = exp_mask(self.gamma)

    def render_label(self) -> str:
        return str(self.label)


@dataclass(slots=True)
class CriticalPair:
    """S-pair bookkeeping; component i carries the larger multiplied signature.

    ``sig`` is u_i * Sig(r_i), the pair's signature, and ``sig_j`` is
    u_j * Sig(r_j); the criteria read a component's index and term from them.
    """

    i: int
    j: int
    u_i: tuple[int, ...]
    u_j: tuple[int, ...]
    degree: int
    sig: Signature
    sig_j: Signature
    seq: int
    snapshot: Snapshot

    def component(self, comp: str) -> tuple[tuple[int, ...], int]:
        return (self.u_i, self.i) if comp == "i" else (self.u_j, self.j)

    def msig(self, comp: str) -> Signature:
        """The component's multiplied signature u * Sig(r_pos)."""
        return self.sig if comp == "i" else self.sig_j


@dataclass(slots=True)
class NormalizedVerdict:
    """F5 verdict on a pair: the first witness found, (component, witness).

    ``witnesses`` lists every witness of both components on access, from the
    basis as it stood at the snapshot the verdict was judged against.
    """

    normalized: bool
    component: str | None = None
    witness: int | None = None
    pair: CriticalPair | None = dfield(default=None, repr=False)
    state: BasisState | None = dfield(default=None, repr=False, compare=False)
    snapshot: Snapshot | None = dfield(default=None, repr=False)

    @property
    def witnesses(self) -> tuple:
        """((comp, prev_pos), ...), component i first, in basis order."""
        if self.normalized:
            return ()
        return tuple(
            (comp, prev)
            for comp in ("i", "j")
            for prev in component_f5_witnesses(
                self.pair.msig(comp), self.state, self.snapshot
            )
        )


@dataclass(slots=True)
class RewritableVerdict:
    rewritable: bool
    component: str | None = None
    rule: RewriteRule | None = None


# ---------------------------------------------------------------------------
# events

@dataclass(slots=True)
class IterationBegin:
    index: int

    def render(self, state) -> str:
        return f"# iteration index={self.index}"


@dataclass(slots=True)
class PairCreated:
    pair: CriticalPair

    def render(self, state) -> str:
        p = self.pair
        return f"PAIR d={p.degree} sig={p.sig.render(state.ring)} ({p.i},{p.j})"


@dataclass(slots=True)
class PairRejected:
    pair: CriticalPair
    kind: str  # "f5crit" | "rewrite"
    stage: str  # "creation" | "pop"
    component: str
    verdict: NormalizedVerdict | None = None  # f5crit
    rule: RewriteRule | None = None

    @property
    def witness(self) -> int | None:
        """f5crit: the first witness, the one the certificate uses."""
        return self.verdict.witness if self.verdict else None

    @property
    def witnesses(self) -> tuple:
        """f5crit: every witness, ((comp, prev_pos), ...)."""
        return self.verdict.witnesses if self.verdict else ()

    def render(self, state) -> str:
        ring = state.ring
        p = self.pair
        lines = []
        if self.kind == "f5crit":
            for comp, prev in self.witnesses:
                u, pos = p.component(comp)
                lines.append(
                    f"REJECT f5crit pair=({p.i},{p.j}) comp={comp} "
                    f"u={ring.render_exp(u)} sig={state.sig(pos).render(ring)} "
                    f"witness={prev}"
                )
        else:
            u, pos = p.component(self.component)
            lines.append(
                f"REJECT rewrite pair=({p.i},{p.j}) comp={self.component} "
                f"u={ring.render_exp(u)} sig={state.sig(pos).render(ring)} "
                f"rule={self.rule.render_label()}"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class SignatureCollision:
    a: int
    b: int
    sig: Signature

    def render(self, state) -> str:
        return f"REJECT collision pair=({self.a},{self.b}) sig={self.sig.render(state.ring)}"


@dataclass(slots=True)
class PairAdmitted:
    pair: CriticalPair

    def render(self, state) -> str:
        p = self.pair
        return f"REDUCE pair=({p.i},{p.j}) sig={p.sig.render(state.ring)}"


@dataclass(slots=True)
class ReducedToZero:
    sig: Signature
    trail_label: str

    def render(self, state) -> str:
        return f"ZERO sig={self.sig.render(state.ring)}"


@dataclass(slots=True)
class ElementAdded:
    pos: int
    sig: Signature
    ht: tuple[int, ...]

    def render(self, state) -> str:
        ring = state.ring
        return f"NEW pos={self.pos} sig={self.sig.render(ring)} ht={ring.render_exp(self.ht)}"


@dataclass(slots=True)
class RuleOutOfOrder:
    index: int
    gamma: tuple[int, ...]

    def render(self, state) -> str:
        return (
            f"# rule-out-of-order index={self.index} "
            f"gamma={state.ring.render_exp(self.gamma)}"
        )


# ---------------------------------------------------------------------------
# basis state

class BasisState:
    """Growing labeled basis, rewrite-rule table, stats, and event log."""

    def __init__(self, ring, m: int, opts: EngineOptions | None = None):
        self.ring = ring
        self.m = m
        self.opts = opts or EngineOptions()
        self.elements: list[LabeledPoly] = []
        self.ht_masks: list[int] = []  # divisor masks of the head terms
        self.index_positions: dict[int, list[int]] = {}  # ascending, by signature index
        self.f5_tables: dict[int, F5Table] = {}  # by component index k0
        self.element_rule: list[RewriteRule | None] = []
        self.rules: dict[int, list[RewriteRule]] = {i: [] for i in range(1, m + 1)}
        self.stats = Stats()
        self.events: list = []
        self.syzygy_trails: dict[str, ModuleVector] = {}
        self.current_index = m
        self._rule_seq = 0
        self._pair_seq = 0
        self._trail_seq = 0
        self._heap: list | None = None
        self._snapshot: Snapshot | None = None

    # accessors (1-based positions) -----------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def element(self, pos: int) -> LabeledPoly:
        if not 1 <= pos <= self.size:
            raise StructureError(f"unknown basis position {pos}")
        return self.elements[pos - 1]

    def poly(self, pos: int) -> Polynomial:
        return self.element(pos).poly

    def sig(self, pos: int) -> Signature:
        return self.element(pos).sig

    def active_positions(self, snapshot: Snapshot | None = None):
        """Ascending positions of the elements a pair or reductor may use:
        inputs from the current index on, then every derived element."""
        max_pos = snapshot.max_pos if snapshot else self.size
        min_index = snapshot.min_index if snapshot else self.current_index
        m = self.m
        return chain(range(min_index, min(m, max_pos) + 1), range(m + 1, max_pos + 1))

    def snapshot(self) -> Snapshot:
        """The basis as it stands; pairs created in one batch share it."""
        snap = self._snapshot
        if snap is None or (snap.max_pos, snap.min_index, snap.rule_seq) != (
            self.size, self.current_index, self._rule_seq
        ):
            snap = self._snapshot = Snapshot(self.size, self.current_index, self._rule_seq)
        return snap

    def polys(self) -> list[Polynomial]:
        return [e.poly for e in self.elements]

    # mutation ---------------------------------------------------------------

    def add_rule(self, gamma: tuple[int, ...], index: int, label=None) -> RewriteRule:
        self._rule_seq += 1
        rule = RewriteRule(gamma, index, self._rule_seq, label)
        lst = self.rules.setdefault(index, [])
        if lst and compare(lst[-1].gamma, gamma, self.ring) is Cmp.GT:
            self.events.append(RuleOutOfOrder(index, gamma))
        lst.append(rule)
        return rule

    def _append(self, lp: LabeledPoly) -> int:
        """Store lp and drop the F5 tables it could change: those of every
        index below lp's, for which it is a new candidate."""
        self.elements.append(lp)
        self.ht_masks.append(exp_mask(lp.poly.ht))
        pos = self.size
        j = lp.sig.index
        self.index_positions.setdefault(j, []).append(pos)
        for k0 in [k0 for k0 in self.f5_tables if k0 < j]:
            del self.f5_tables[k0]
        return pos

    def append_input(self, lp: LabeledPoly) -> int:
        pos = self._append(lp)
        rule = self.add_rule(self.ring.zero_exp, pos, label=pos)
        self.element_rule.append(rule)
        return pos

    def add_element(self, lp: LabeledPoly, rule: RewriteRule) -> int:
        if self.size >= self.opts.max_elements:
            raise EngineError(f"basis exceeded {self.opts.max_elements} elements")
        pos = self._append(lp)
        self.element_rule.append(rule)
        rule.label = pos
        self.stats.elements_added += 1
        self.events.append(ElementAdded(pos, lp.sig, lp.poly.ht))
        return pos

    def new_trail_label(self) -> str:
        self._trail_seq += 1
        return f"syzygy:{self._trail_seq}"

    def validate_witness(self, pos: int):
        """Admissibility of one element: its witness evaluates to its
        polynomial and has the stored signature as module head term."""
        elt = self.element(pos)
        if elt.witness is None:
            raise EngineError(f"element {pos} has no witness")
        if evaluate(elt.witness, self) != elt.poly:
            raise EngineError(f"witness of element {pos} does not evaluate to it")
        if mht(elt.witness, self) != elt.sig:
            raise EngineError(f"witness of element {pos} has wrong module head term")

    def validate_witnesses(self):
        """Admissibility of every element."""
        for pos in range(1, self.size + 1):
            self.validate_witness(pos)


# ---------------------------------------------------------------------------
# the two criteria

@dataclass(slots=True)
class F5Table:
    """The F5 criterion for components of one index k0: its candidates, every
    element of larger index as (position, head mask, head) in position order,
    and the first witness by term t = u * Gamma(r), 0 for none, memoised."""

    cands: list
    first: dict = dfield(default_factory=dict)


def _f5_table(state: BasisState, k0: int) -> F5Table:
    table = state.f5_tables.get(k0)
    if table is None:
        masks = state.ht_masks
        table = state.f5_tables[k0] = F5Table([
            (pos, masks[pos - 1], elt.poly.ht)
            for pos, elt in enumerate(state.elements, 1)
            if elt.sig.index > k0
        ])
    return table


def component_f5_witnesses(
    msig: Signature, state: BasisState, snapshot: Snapshot | None = None
) -> list[int]:
    """Basis elements of larger index than msig's whose head divides msig's
    term, for a component with multiplied signature msig = u * Sig(r_pos).

    The candidates, every element of index > k0 = msig.index, do not depend
    on when the question is asked.  The engine works index by index from m-1
    down to 1 and makes every element of index j in iteration j, so each
    candidate exists before any component of index k0 meets a pair: no
    snapshot cuts one off, and later elements (index <= k0) never join.
    That is why ``first_f5_witness`` memoises its answer on (k0, term)
    alone; this full list, read when a rejection lists its witnesses, is
    scanned afresh.  States built by hand may append out of that order;
    appending an element of index j drops the tables of every k0 < j
    (``BasisState._append``).  A head whose divisor mask names a variable
    that the term lacks is skipped without the exponent-wise test.
    """
    t = msig.gamma
    miss = ~exp_mask(t)
    max_pos = snapshot.max_pos if snapshot else state.size
    return [
        pos for pos, mask, ht in _f5_table(state, msig.index).cands
        if pos <= max_pos and not mask & miss and exp_divides(ht, t)
    ]


def first_f5_witness(
    msig: Signature, state: BasisState, snapshot: Snapshot | None = None
) -> int:
    """Position of the first F5 witness of the component with multiplied
    signature msig, or 0 when it has none: the one F5-criterion query.

    The answer is memoised on (msig.index, msig.gamma), which the
    invariant in ``component_f5_witnesses`` makes sound.  Candidates come in
    position order, so a first witness past the snapshot means none in it.
    """
    table = _f5_table(state, msig.index)
    t = msig.gamma
    first = table.first.get(t)
    if first is None:
        first = 0
        miss = ~exp_mask(t)
        for pos, mask, ht in table.cands:
            if not mask & miss and exp_divides(ht, t):
                first = pos
                break
        table.first[t] = first
    if snapshot is not None and first > snapshot.max_pos:
        return 0
    return first


def component_rewriter(
    msig: Signature, pos: int, state: BasisState, snapshot: Snapshot | None = None
) -> RewriteRule | None:
    """Newest rule of msig's index dividing msig's term, for the component
    u * r_pos with multiplied signature msig = u * Sig(r_pos).

    The newest divisor decides: the component's own creation rule means "not
    rewritable", any other rule rewrites the component.
    """
    own = state.element_rule[pos - 1]
    t = msig.gamma
    miss = ~exp_mask(t)
    max_seq = snapshot.rule_seq if snapshot else None
    for rule in reversed(state.rules.get(msig.index, [])):
        if max_seq is not None and rule.seq > max_seq:
            continue
        if not rule.mask & miss and exp_divides(rule.gamma, t):
            return None if rule is own else rule
    return None


def is_normalized(
    pair: CriticalPair, state: BasisState, snapshot: Snapshot | None = None
) -> NormalizedVerdict:
    """F5 criterion: component i, then j, each asked for its first witness.

    One witness decides the verdict and builds the certificate; the verdict
    rebuilds the full list only when it is read.  Without a snapshot the pair
    is judged against the current basis, which the verdict then records.
    """
    for comp in ("i", "j"):
        hit = first_f5_witness(pair.msig(comp), state, snapshot)
        if hit:
            snap = snapshot or state.snapshot()
            return NormalizedVerdict(False, comp, hit, pair, state, snap)
    return NormalizedVerdict(True)


def is_rewritable(
    pair: CriticalPair, state: BasisState, snapshot: Snapshot | None = None
) -> RewritableVerdict:
    """Rewritten criterion on both components, larger-signature side first."""
    for comp in ("i", "j"):
        _, pos = pair.component(comp)
        rule = component_rewriter(pair.msig(comp), pos, state, snapshot)
        if rule is not None:
            return RewritableVerdict(True, comp, rule)
    return RewritableVerdict(False)


# ---------------------------------------------------------------------------
# signature-safe top reduction

@dataclass
class TRResult:
    kind: str  # "reduced" | "zero" | "split"
    element: LabeledPoly
    new_element: LabeledPoly | None = None


def _monicize(lp: LabeledPoly) -> LabeledPoly:
    if lp.poly.is_zero:
        return lp
    f = lp.poly.ring.field
    c = lp.poly.hc
    if c == f.one:
        return lp
    inv = f.inv(c)
    w = lp.witness.scale(inv) if lp.witness is not None else None
    return LabeledPoly(lp.sig, lp.poly.scale(inv), w)


def _find_reductor(ht: tuple[int, ...], sig: Signature, state: BasisState):
    """First eligible reductor of the head term ht, in insertion order.

    A reductor multiple must not share the working signature, must be
    normalized, and must not be rewritable (same predicates as pair
    components).  A head whose divisor mask names a variable that ht lacks
    is skipped without the exponent-wise test.
    """
    ring = state.ring
    miss = ~exp_mask(ht)
    masks = state.ht_masks
    for pos in state.active_positions():
        if masks[pos - 1] & miss:
            continue
        elt = state.elements[pos - 1]
        u = exp_div(ht, elt.poly.ht)
        if u is None:
            continue
        msig = sig_mul(u, elt.sig)
        cm = sig_compare(msig, sig, ring)
        if cm is Cmp.EQ:
            continue
        if first_f5_witness(msig, state):
            continue
        if component_rewriter(msig, pos, state) is not None:
            continue
        return u, pos, elt, cm
    return None


def top_reduction_signed(
    r: LabeledPoly, state: BasisState, order: MonomialOrder | None = None
) -> TRResult:
    """Reduce the head of r by eligible reductors.

    Smaller-signature reductors rewrite the head in place (the signature never
    changes); a larger-signature reductor splits the computation: the element
    is returned together with the new S-polynomial against the reductor.
    Reduction to the zero polynomial reports zero.

    The working polynomial lives on packed monomials, as in ``polyring``'s
    reduction loop: an accumulator plus a heap, where a step pops the head
    and subtracts q*x^u times the reductor's packed tail (``_sub_tail``),
    so it costs the reductor's length, not the working polynomial's.  The
    working polynomial and its witness are kept unscaled (the certified
    per-step check compares the two as they are) and made monic only where
    they leave the loop, so the result equals that of rescaling after every
    step: on a split with no step taken the element is r itself, and a zero
    result's witness is the last step's divided by the head coefficient
    before that step (by one when it was the first).
    """
    if r.poly.is_zero:
        return TRResult("zero", r)
    opts = state.opts
    check = opts.certify and opts.validate_witnesses
    ring = state.ring
    field = ring.field
    prime = field.p if field.is_prime else 0
    overflow = ring._guard if ring.order.kind == "lex" else 0
    unpack = ring.unpack
    acc, heap = _packed(r.poly)
    head = -heapq.heappop(heap)
    c = acc.pop(head)
    witness = r.witness
    scale = None  # head coefficient after the last step; None before the first
    while True:
        found = _find_reductor(unpack(head), r.sig, state)
        if found is None or found[3] is Cmp.GT:
            if scale is not None:
                poly = _settle(ring, [(head, c)], acc, prime)
                r = _monicize(LabeledPoly(r.sig, poly, witness))
            if found is None:
                return TRResult("reduced", _monicize(r))
            # Spol(r_red, r) with the larger multiplied signature
            u, pos, elt, _ = found
            unit = ModuleVector.unit(pos, ring) if r.witness is not None else None
            new = build_labeled_spol(sig_mul(u, elt.sig), elt.poly, unit, r.poly, r.witness)
            state.stats.splits += 1
            return TRResult("split", r, _monicize(new))
        u, pos, elt, _ = found
        hk, inv, tail = elt.poly._reducer or _pack_reducer(elt.poly)
        q = c
        if inv is not None:
            q = c * inv % prime if prime else c * inv
        _sub_tail(acc, heap, q, head - hk, tail, overflow)
        if witness is not None:
            witness = witness - ModuleVector.unit(pos, ring).mul_term(u, q)
        state.stats.reduction_steps += 1
        while heap:
            head = -heapq.heappop(heap)
            c = acc.pop(head)
            if prime:
                c %= prime
            if c:
                break
        else:
            if witness is not None and scale is not None:
                witness = witness.scale(field.inv(scale))
            return TRResult("zero", LabeledPoly(r.sig, ring.zero, witness))
        scale = c
        if check and evaluate(witness, state) != _settle(ring, [(head, c)], acc, prime):
            raise EngineError("working witness diverged during reduction")


# ---------------------------------------------------------------------------
# the incremental engine

def _make_pair(state: BasisState, a: int, b: int) -> None:
    """Create the critical pair of positions a and b, run creation-time checks,
    and enqueue it if it survives."""
    ring = state.ring
    ea, eb = state.elements[a - 1], state.elements[b - 1]
    hta, htb = ea.poly.ht, eb.poly.ht
    l = lcm_term(hta, htb)
    ua, ub = exp_div(l, hta), exp_div(l, htb)
    sa, sb = sig_mul(ua, ea.sig), sig_mul(ub, eb.sig)
    cmpab = sig_compare(sa, sb, ring)
    state.stats.pairs_created += 1
    if cmpab is Cmp.EQ:
        state.stats.signature_collisions += 1
        state.events.append(SignatureCollision(a, b, sa))
        return
    if cmpab is Cmp.LT:
        a, b, ua, ub, sa, sb = b, a, ub, ua, sb, sa
    state._pair_seq += 1
    pair = CriticalPair(
        i=a, j=b, u_i=ua, u_j=ub, degree=exp_degree(l), sig=sa, sig_j=sb,
        seq=state._pair_seq, snapshot=state.snapshot(),
    )
    state.events.append(PairCreated(pair))
    if state.opts.check_on_creation and _rejected(state, pair, "creation", f5=True):
        return
    heapq.heappush(
        state._heap, (pair.degree, sig_key(pair.sig, ring), pair.seq, pair)
    )


def _rejected(state: BasisState, pair: CriticalPair, stage: str, f5: bool) -> bool:
    """Run the F5 criterion (when f5 is set), then the Rewritten criterion;
    record and count the rejection when one of them discards the pair."""
    if f5:
        snapshot = pair.snapshot if stage == "creation" else None
        nv = is_normalized(pair, state, snapshot)
        if not nv.normalized:
            state.stats.rejected_not_normalized += 1
            state.events.append(PairRejected(pair, "f5crit", stage, nv.component, nv))
            return True
    rw = is_rewritable(pair, state)
    if rw.rewritable:
        state.stats.rejected_rewritable += 1
        state.events.append(PairRejected(pair, "rewrite", stage, rw.component, rule=rw.rule))
        return True
    return False


def _spol_of_pair(state: BasisState, pair: CriticalPair) -> LabeledPoly:
    wi = wj = None
    if state.opts.certify:
        wi = ModuleVector.unit(pair.i, state.ring)
        wj = ModuleVector.unit(pair.j, state.ring)
    return _monicize(
        build_labeled_spol(pair.sig, state.poly(pair.i), wi, state.poly(pair.j), wj)
    )


def _reduce_admitted(state: BasisState, pair: CriticalPair, rule: RewriteRule) -> None:
    ring = state.ring
    start = _spol_of_pair(state, pair)
    pending: list = []
    seq = 0
    heapq.heappush(pending, (sig_key(start.sig, ring), seq, start, rule))
    while pending:
        _, _, lp, lp_rule = heapq.heappop(pending)
        res = top_reduction_signed(lp, state)
        if res.kind == "zero":
            state.stats.reductions_to_zero += 1
            label = state.new_trail_label()
            lp_rule.label = label
            if res.element.witness is not None:
                state.syzygy_trails[label] = res.element.witness
            state.events.append(ReducedToZero(res.element.sig, label))
        elif res.kind == "reduced":
            pos = state.add_element(res.element, lp_rule)
            if state.opts.certify and state.opts.validate_witnesses:
                state.validate_witness(pos)
            for other in list(state.active_positions()):
                if other != pos:
                    _make_pair(state, pos, other)
        else:  # split
            new_rule = state.add_rule(res.new_element.sig.gamma, res.new_element.sig.index)
            seq += 1
            heapq.heappush(
                pending, (sig_key(res.element.sig, ring), seq, res.element, lp_rule)
            )
            seq += 1
            heapq.heappush(
                pending,
                (sig_key(res.new_element.sig, ring), seq, res.new_element, new_rule),
            )


def incremental_basis(
    F: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    opts: EngineOptions | None = None,
) -> tuple[BasisState, list]:
    """Signature-based Groebner basis of <F>, computed index by index.

    Returns the final basis state (whose stored polynomials generate the same
    ideal and form a Groebner basis) and the event trace.
    """
    F = list(F)
    if not F:
        raise DomainError("empty generator sequence")
    ring = F[0].ring
    for f in F:
        if f.is_zero:
            raise DomainError("zero generator")
        if f.ring != ring:
            raise StructureError("generators from different rings")
    if order is not None and order != ring.order:
        raise StructureError("order does not match the ring's order")
    state = BasisState(ring, len(F), opts)
    for i, f in enumerate(F, 1):
        witness = ModuleVector.unit(i, ring) if state.opts.certify else None
        state.append_input(LabeledPoly(Signature(ring.zero_exp, i), f.monic(), witness))
    for k in range(state.m - 1, 0, -1):
        state.current_index = k
        state.events.append(IterationBegin(k))
        state._heap = []
        for pos in list(state.active_positions()):
            if pos != k:
                _make_pair(state, k, pos)
        while state._heap:
            _, _, _, pair = heapq.heappop(state._heap)
            # An F5 witness has a larger index than the component it flags,
            # and every element added in this iteration has index k, so a
            # verdict taken at creation still holds; only rules can change.
            if state.opts.recheck_on_pop and _rejected(
                state, pair, "pop", f5=not state.opts.check_on_creation
            ):
                continue
            rule = state.add_rule(pair.sig.gamma, pair.sig.index)
            state.events.append(PairAdmitted(pair))
            _reduce_admitted(state, pair, rule)
    state.current_index = 1
    if state.opts.certify and state.opts.validate_witnesses:
        state.validate_witnesses()
    return state, state.events


def interreduce(basis, order: MonomialOrder | None = None) -> list[Polynomial]:
    """Unique reduced monic Groebner basis of the given basis.

    A ``BasisState`` holds a Groebner basis, so its redundant elements are
    dropped (``minimal_basis``) before autoreduction instead of being
    reduced to zero; any other sequence is autoreduced as it is.
    """
    if isinstance(basis, BasisState):
        return reduced_basis(minimal_basis(basis.polys()))
    return reduced_basis(list(basis))


def rejection_events(state: BasisState) -> list[PairRejected]:
    return [e for e in state.events if isinstance(e, PairRejected)]


def certify_all(state: BasisState) -> list:
    """Build and verify a certificate for every criterion rejection."""
    return [certify_rejection(ev.pair, ev, state) for ev in rejection_events(state)]
