"""Incremental signature-based Groebner basis engine.

Generators are processed from the last index up to the first.  A critical
pair meets the F5 criterion (not normalized) once, when it is created, and the
Rewritten criterion then and again when it is popped; survivors go through
signature-safe top reduction.  All discard decisions are recorded as
structured events that render to a line-oriented trace.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .polyring import (
    Cmp,
    DomainError,
    Polynomial,
    Reducers,
    StructureError,
    check_generators,
    compare,
    exp_divides,
    exp_mask,
    _numerators,
    _remaining,
    _settle,
    _step,
    _sub_step,
    _working,
    lcm_cofactors,
    minimal_basis,
    reduced_basis,
)
from .signature import (
    LabeledPoly,
    Signature,
    build_labeled_spol,
    sig_key,
    sig_mul,
)
from .syzygy import ModuleVector, certify_rejection, evaluate, mht


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineOptions:
    """What a run records and checks besides the basis."""

    certify: bool = False              # carry module-vector witnesses
    validate_witnesses: bool = False   # check admissibility after every step
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


@dataclass
class RewriteRule:
    gamma: tuple[int, ...]
    index: int
    label: object = None  # basis position, or "syzygy:<n>" for zero reductions
    mask: int = dfield(init=False, repr=False)  # divisor mask of gamma

    def __post_init__(self):
        self.mask = exp_mask(self.gamma)


@dataclass(slots=True)
class CriticalPair:
    """S-pair bookkeeping; component i carries the larger multiplied signature.

    A pair holds its two component records, ``rec_i`` and ``rec_j``, one per
    (position, cofactor) in ``BasisState.msigs`` (``_component``), so
    components with equal (u, position) share one record: its u, its
    multiplied signature once read, its packed term and its F5 verdict.
    ``u_i``, ``u_j``, ``sig`` = u_i * Sig(r_i), the pair's signature, and
    ``sig_j`` = u_j * Sig(r_j) read them.  ``snapshot`` is the basis size
    when the pair was made.  It bounds only clause (b) of the relaxed
    criterion (``falsifier``), whose elements have a component's own index
    and so can grow within an iteration.  The F5 criterion takes no bound:
    its witnesses, of larger index, are all in the basis before the pair is
    made (``component_f5_witnesses``).  The positions and snapshot are the
    state's shared ints, so the pairs of one batch share one snapshot.  A
    created pair is its own event: ``PairCreated`` names this class.
    """

    i: int
    j: int
    rec_i: list
    rec_j: list
    degree: int
    snapshot: int

    @property
    def u_i(self) -> tuple[int, ...]:
        return self.rec_i[0]

    @property
    def u_j(self) -> tuple[int, ...]:
        return self.rec_j[0]

    @property
    def sig(self) -> Signature:
        return _msig(self.rec_i)

    @property
    def sig_j(self) -> Signature:
        return _msig(self.rec_j)

    def component(self, comp: str) -> tuple[tuple[int, ...], int]:
        return (self.u_i, self.i) if comp == "i" else (self.u_j, self.j)

    def msig(self, comp: str) -> Signature:
        """The component's multiplied signature u * Sig(r_pos)."""
        return self.sig if comp == "i" else self.sig_j

    def render(self, state) -> str:
        return f"PAIR d={self.degree} sig={self.sig.render(state.ring)} ({self.i},{self.j})"


PairCreated = CriticalPair


def _component(memo: dict, v: int, sig: Signature, ring) -> list:
    """The new component record of cofactor u, given as its variable fields
    v, in the memo of a position with signature sig.

    A component u * r_pos has one record, shared by every pair and reductor
    search that meets it: the list [u, u * sig or None, deg u, packed term
    or None, F5 verdict or None, sig], a list because it is made for about
    every other component and a list is the cheapest record to build.  Each
    None is filled on first read: the multiplied signature by ``_msig``;
    the packed term, pack(u) + pack(Gamma(sig)), where a same-index
    comparison or an F5 query first needs it (``_packed_term``), so that a
    term outside the packed field raises DomainError only there; the
    verdict, the position of the component's first F5 witness or 0, where
    the F5 criterion is first asked (``_f5_verdict``).
    """
    u = ring._varcache.get(v) or ring.unpack_vars(v)
    rec = memo[v] = [u, None, sum(u), None, None, sig]
    return rec


def _msig(rec: list) -> Signature:
    """The multiplied signature u * Sig(r_pos) of a component record, built
    once."""
    s = rec[1]
    if s is None:
        sig = rec[5]
        s = rec[1] = Signature(tuple(map(add, rec[0], sig.gamma)), sig.index)
    return s


def _packed_term(rec: list, ring) -> int:
    """The packed term of a component record's signature, packed once: the
    sum of u's and Gamma's packed monomials, which multiplies them.  Both
    pack, u dividing a head and Gamma being a signature's, and their sum
    has a guard bit set exactly where packing u * Gamma would raise."""
    k = rec[3]
    if k is None:
        k = ring.pack(rec[0]) + ring.pack(rec[5].gamma)
        if k & ring._guard:
            raise DomainError(f"exponent {_msig(rec).gamma} does not fit a packed monomial")
        rec[3] = k
    return k


def _all_f5_witnesses(pair: CriticalPair, state: BasisState) -> tuple:
    """((comp, prev_pos), ...), component i first, in basis order."""
    return tuple(
        (comp, prev)
        for comp in ("i", "j")
        for prev in component_f5_witnesses(pair.msig(comp), state)
    )


@dataclass(slots=True)
class NormalizedVerdict:
    """F5 verdict on a pair: the first witness found, (component, witness)."""

    normalized: bool
    component: str | None = None
    witness: int | None = None


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
class PairRejected:
    """A discarded pair.  An F5 rejection keeps its component and first
    witness, the one the certificate uses, and lists every witness on demand
    through the state's weak reference, from the basis as it stands: the
    witnesses of a component are all there before the pair is made, and no
    later element joins them."""

    pair: CriticalPair
    kind: str  # "f5crit" | "rewrite"
    stage: str  # "creation" | "pop"
    component: str
    witness: int | None = None  # f5crit
    rule: RewriteRule | None = None  # rewrite
    state_ref: weakref.ref | None = dfield(default=None, repr=False, compare=False)

    @property
    def witnesses(self) -> tuple:
        """f5crit: every witness, ((comp, prev_pos), ...)."""
        if self.kind != "f5crit":
            return ()
        state = self.state_ref() if self.state_ref is not None else None
        if state is None:
            raise StructureError("the basis state this rejection was made in is gone")
        return _all_f5_witnesses(self.pair, state)

    def render(self, state) -> str:
        """One line per witness of each component (f5crit), or one line
        naming the rule (rewrite); a component's prefix is built once."""
        ring = state.ring
        p = self.pair

        def prefix(comp):
            u, pos = p.component(comp)
            return (f"REJECT {self.kind} pair=({p.i},{p.j}) comp={comp} "
                    f"u={ring.render_exp(u)} sig={state.sig(pos).render(ring)} ")

        if self.kind != "f5crit":
            return f"{prefix(self.component)}rule={self.rule.label}"
        lines = []
        for comp in ("i", "j"):
            witnesses = component_f5_witnesses(p.msig(comp), state)
            if witnesses:
                head = prefix(comp)
                lines.extend(f"{head}witness={prev}" for prev in witnesses)
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
        self.positions: list[int] = [0]  # positions[p] is p: one int per position, shared
        # heads[p]: the variable fields of r_p's packed head (``lcm_cofactors``)
        self.heads: list[int] = [0]
        self.f5_tables: dict[int, F5Table] = {}  # by component index k0
        # by position: the variable fields of a cofactor u -> its component
        # record [u, u * Sig(r_pos), deg u, packed term, F5 verdict, Sig(r_pos)],
        # each None until first read (``_component``)
        self.msigs: list[dict] = []
        # by position: a monomial's id -> the step that reduces it by r_pos
        # (``_step``), which depends on the two alone, not on a signature
        self.steps: list[dict] = []
        self.element_rule: list[RewriteRule | None] = []
        self.rules: dict[int, list[RewriteRule]] = {i: [] for i in range(1, m + 1)}
        self.stats = Stats()
        self.events: list = []
        self.syzygy_trails: dict[str, ModuleVector] = {}
        self.sig_keys: list = [None]  # by position: the sig_key of its signature
        self.creation_syzygies: dict[int, ModuleVector] = {}  # by position, built on demand
        # checked certificates at u_min, by (position, kind, witness | rule)
        self.cert_templates: dict = {}
        self.current_index = m
        self._pair_seq = 0
        self._trail_seq = 0
        self._heap: list | None = None
        self.ref = weakref.ref(self)  # shared by the F5 rejections, to list witnesses

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

    def active_positions(self):
        """Ascending positions of the elements a pair or reductor may use:
        inputs from the current index on, then every derived element.  They
        are the state's own position ints, so the pairs share them."""
        return self.positions[self.current_index:]

    def polys(self) -> list[Polynomial]:
        return [e.poly for e in self.elements]

    # mutation ---------------------------------------------------------------

    def add_rule(self, gamma: tuple[int, ...], index: int, label=None) -> RewriteRule:
        rule = RewriteRule(gamma, index, label)
        lst = self.rules.setdefault(index, [])
        if lst and compare(lst[-1].gamma, gamma, self.ring) is Cmp.GT:
            self.events.append(RuleOutOfOrder(index, gamma))
        lst.append(rule)
        return rule

    def _append(self, lp: LabeledPoly) -> int:
        """Store lp and drop the F5 tables it could change, those of every
        index below lp's, for which it is a new candidate, with the verdicts
        their components' records keep.  Every query reads an element's
        packed head, so a zero polynomial is refused."""
        if lp.poly.is_zero:
            raise DomainError("a basis element must be nonzero")
        self.elements.append(lp)
        self.heads.append(lp.poly.packed[0][0] & self.ring._varmask)
        self.sig_keys.append(sig_key(lp.sig, self.ring))
        self.msigs.append({})
        self.steps.append({})
        pos = self.size
        self.positions.append(pos)
        dropped = [k0 for k0 in self.f5_tables if k0 < lp.sig.index]
        for k0 in dropped:
            del self.f5_tables[k0]
        if dropped:
            for elt, memo in zip(self.elements, self.msigs):
                if elt.sig.index in dropped:
                    for rec in memo.values():
                        rec[4] = None
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
    """The F5 criterion for components of one index k0: ``cands``, the
    positions of every element of larger index, ascending; ``reducers``, one
    ``Reducers`` over their polynomials in the same order, whose memo holds
    each packed term's first witness as an index into ``cands``; and
    ``every``, memoised by term t = u * Gamma(r), the tuple of every
    witness, in position order."""

    cands: list
    reducers: Reducers
    every: dict = dfield(default_factory=dict)


def _f5_table(state: BasisState, k0: int) -> F5Table:
    table = state.f5_tables.get(k0)
    if table is None:
        cands = [pos for pos, elt in enumerate(state.elements, 1) if elt.sig.index > k0]
        reducers = Reducers(state.ring, [state.elements[pos - 1].poly for pos in cands])
        table = state.f5_tables[k0] = F5Table(cands, reducers)
    return table


def component_f5_witnesses(msig: Signature, state: BasisState) -> tuple[int, ...]:
    """Basis elements of larger index than msig's whose head divides msig's
    term, for a component with multiplied signature msig = u * Sig(r_pos),
    in position order.

    The candidates, every element of index > k0 = msig.index, do not depend
    on when the question is asked.  The engine works index by index from m-1
    down to 1 and makes every element of index j in iteration j, so each
    candidate exists before any component of index k0 meets a pair, and
    later elements (index <= k0) never join.  So the basis as it stands
    answers for every pair of index k0, whenever it was made, and no
    snapshot cuts the answer: ``first_f5_witness`` memoises its answer on
    (k0, term) alone, in the table's ``Reducers``, and this full tuple, read
    when a rejection lists its witnesses, is memoised the same way in
    ``F5Table.every``.  States built by hand may append out of that order;
    appending an element of index j drops the tables of every k0 < j and
    resets the verdicts their components' records keep
    (``BasisState._append``).  Divisibility is the ring's guard test on
    packed monomials, so a term outside the packed field raises DomainError.
    """
    table = _f5_table(state, msig.index)
    t = msig.gamma
    every = table.every.get(t)
    if every is None:
        e, guard = state.ring.pack(t), state.ring._guard
        every = table.every[t] = tuple(
            pos for pos, h in zip(table.cands, table.reducers.heads) if not (e - h) & guard
        )
    return every


def first_f5_witness(k0: int, e: int, state: BasisState) -> int:
    """Position of the first F5 witness of a component of index k0 with
    packed term e, or 0 when it has none: the one F5-criterion query.

    In the paper's terms, (u, r_k) is not normalized when u * Gamma(r_k) is
    top-reducible by the elements of larger index, which is the question
    ``Reducers.find`` answers for the packed term.  Its memo, keyed on the
    packed term in the table of k0, is sound by the invariant in
    ``component_f5_witnesses``, and a component record keeps the answer
    (``_f5_verdict``).
    """
    table = state.f5_tables.get(k0) or _f5_table(state, k0)
    i = table.reducers.find(e)
    return table.cands[i] if i >= 0 else 0


def _f5_verdict(rec: list, state: BasisState) -> int:
    """A component record's F5 verdict, its first witness or 0, asked once
    and kept in the record until ``BasisState._append`` resets it."""
    hit = rec[4]
    if hit is None:
        hit = rec[4] = first_f5_witness(rec[5].index, _packed_term(rec, state.ring), state)
    return hit


def component_rewriter(msig: Signature, pos: int, state: BasisState) -> RewriteRule | None:
    """Newest rule of msig's index dividing msig's term, for the component
    u * r_pos with multiplied signature msig = u * Sig(r_pos).

    The newest divisor decides: the component's own creation rule means "not
    rewritable", any other rule rewrites the component.
    """
    own = state.element_rule[pos - 1]
    t = msig.gamma
    miss = ~exp_mask(t)
    for rule in reversed(state.rules.get(msig.index, [])):
        if not rule.mask & miss and exp_divides(rule.gamma, t):
            return None if rule is own else rule
    return None


def is_normalized(pair: CriticalPair, state: BasisState) -> NormalizedVerdict:
    """F5 criterion: component i, then j, each asked for its first witness in
    the basis as it stands, which holds every witness the component can have
    (``component_f5_witnesses``); the pair's snapshot plays no part.  Each
    answer is the one its component record keeps (``_f5_verdict``).

    One witness decides the verdict and builds the certificate;
    ``component_f5_witnesses`` lists them all.
    """
    hit = _f5_verdict(pair.rec_i, state)
    if hit:
        return NormalizedVerdict(False, "i", hit)
    hit = _f5_verdict(pair.rec_j, state)
    if hit:
        return NormalizedVerdict(False, "j", hit)
    return NormalizedVerdict(True)


def is_rewritable(pair: CriticalPair, state: BasisState) -> RewritableVerdict:
    """Rewritten criterion on both components, larger-signature side first,
    against the rules as they stand."""
    for comp, msig, pos in (("i", pair.sig, pair.i), ("j", pair.sig_j, pair.j)):
        rule = component_rewriter(msig, pos, state)
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


def _find_reductor(head: int, sig: Signature, state: BasisState):
    """First eligible reductor of the packed head term head, in insertion
    order: (u, pos, element, comparison of u * Sig(r_pos) with sig).

    A reductor multiple must not share the working signature, must be
    normalized, and must not be rewritable (same predicates as pair
    components).  A reductor divides the head when the guard test passes
    on the difference of their variable fields (``BasisState.heads``), the
    cofactor that keys the multiple's component record in the position's
    memo, the record pair creation reads, with its F5 verdict.  Signatures
    of one index compare by their packed terms, the record's and sig's, each
    packed on first need.
    """
    ring = state.ring
    vguard, heads, elements, msigs = ring._varguard, state.heads, state.elements, state.msigs
    index, key = sig.index, None
    head &= ring._varmask
    for pos in range(state.current_index, len(heads)):
        v = head - heads[pos]
        if v & vguard:
            continue
        elt, memo = elements[pos - 1], msigs[pos - 1]
        rec = memo.get(v) or _component(memo, v, elt.sig, ring)
        k0 = rec[5].index
        if k0 != index:
            cm = Cmp.LT if k0 > index else Cmp.GT
        else:
            k = _packed_term(rec, ring)
            if key is None:
                key = ring.pack(sig.gamma)
            if k == key:
                continue
            cm = Cmp.GT if k > key else Cmp.LT
        if _f5_verdict(rec, state):
            continue
        if component_rewriter(_msig(rec), pos, state) is not None:
            continue
        return rec[0], pos, elt, cm
    return None


def top_reduction_signed(r: LabeledPoly, state: BasisState) -> TRResult:
    """Reduce the head of r by eligible reductors.

    Smaller-signature reductors rewrite the head in place (the signature never
    changes); a larger-signature reductor splits the computation: the element
    is returned together with the new S-polynomial against the reductor.
    Reduction to the zero polynomial reports zero.

    The working polynomial lives on monomial ids, as in ``polyring``'s
    reduction loop: an accumulator indexed by id plus a heap of negated
    packed monomials (``_working``), over ℚ of integer numerators over one
    running denominator (``_numerators``).  A step pops the packed head,
    hands it to ``_find_reductor`` as it is, and applies the reductor's
    step (``_sub_step``), so it costs the reductor's length, not the
    working polynomial's.  A step depends on the reductor's position and
    the monomial alone, not on the signature, so each is built once
    (``_step``) and kept in the position's memo, ``BasisState.steps``,
    keyed by the monomial's id.  Every id of the loop is the state's ring's,
    which r's and the reductors' rings equal but need not be.  Over ℚ a
    Fraction is made only of a value that leaves the loop: the witness
    multiplier, the head coefficient, and the polynomial the certified
    per-step check and the result read.  The
    working polynomial and its witness are kept unscaled (the certified
    per-step check compares the two as they are) and made monic only where
    they leave the loop, so the result equals that of rescaling after every
    step.  After a step the result settles monic in one pass, each
    numerator over the head's, c: Fraction(v, c) over ℚ, v·c⁻¹ mod p over
    GF(p) (``_settle``), and only the witness is scaled.  On a split with
    no step taken the element is r itself, and a zero result's witness is
    the last step's divided by the head coefficient before that step (by
    one when it was the first).  Under lex a reductor's tail shifted out of
    its packed field raises DomainError (``_step``).
    """
    if r.poly.is_zero:
        return TRResult("zero", r)
    opts = state.opts
    check = opts.certify and opts.validate_witnesses
    ring = state.ring
    field = ring.field
    prime, ids = field.p, ring._ids
    den, terms = _numerators(r.poly)
    # the head, id i and numerator c, starts the loop; the tail is the accumulator
    (head, c), i = terms[0], ring.intern(terms[:1])[0]
    acc, heap = _working(ring, terms[1:])
    witness = r.witness
    scale = None  # head coefficient after the last step; None before the first
    while True:
        found = _find_reductor(head, r.sig, state)
        if found is None or found[3] is Cmp.GT:
            if scale is not None:
                poly = _settle(ring, [(head, field.one)], _remaining(ring, acc, heap), prime, c)
                if witness is not None:
                    witness = witness.scale(field.inv(scale))
                r = LabeledPoly(r.sig, poly, witness)
            if found is None:
                return TRResult("reduced", _monicize(r))
            # Spol(r_red, r) with the larger multiplied signature: HT(r_red)
            # divides HT(r), so the cofactors are u and 1
            u, pos, elt, _ = found
            unit = ModuleVector.unit(pos, ring) if r.witness is not None else None
            new = build_labeled_spol(sig_mul(u, elt.sig), u, elt.poly, unit,
                                     ring.zero_exp, r.poly, r.witness)
            state.stats.splits += 1
            return TRResult("split", r, _monicize(new))
        u, pos, elt, _ = found
        memo = state.steps[pos - 1]
        step = memo.get(i) or memo.setdefault(i, _step(elt.poly, head, ring))
        if witness is not None:
            q = c * step[0] % prime if prime else Fraction(c, den) / elt.poly.hc
            witness = witness - ModuleVector.unit(pos, ring).mul_term(u, q)
        den = _sub_step(acc, heap, c, step, ring, den)
        state.stats.reduction_steps += 1
        while heap:
            k = heapq.heappop(heap)
            i, head = ids[k], -k
            c, acc[i] = acc[i], None
            if prime:
                c %= prime
            if c:
                break
        else:
            if witness is not None and scale is not None:
                witness = witness.scale(field.inv(scale))
            return TRResult("zero", LabeledPoly(r.sig, ring.zero, witness))
        scale = c if prime else Fraction(c, den)
        if check and evaluate(witness, state) != _settle(ring, [(head, scale)],
                                                         _remaining(ring, acc, heap), prime, den):
            raise EngineError("working witness diverged during reduction")


# ---------------------------------------------------------------------------
# the incremental engine

def _make_pairs(state: BasisState, a: int, others: Iterable[int]) -> None:
    """Create the critical pairs of position a with every other position in
    others, run the creation-time checks, and enqueue the survivors.

    No element or rule is added while a batch is made, so its pairs share
    one snapshot, the state's int for the basis size, and a's head,
    signature and memo are read once.  The lcm and both cofactors come from
    the heads' packed variable fields (``lcm_cofactors``), and each
    cofactor keys its component's record in its position's memo,
    ``BasisState.msigs`` (``_component``), so components with equal
    (u, pos) share one record, and the pair's degree is deg u plus the
    degree of the head.  The pair holds both records, and the criteria and
    the heap key, (-index, packed term), read them.  A creation-time rejection
    is the event right after its pair, which ``falsifier.scan_run`` reads as
    the pair's F5 verdict.
    """
    ring = state.ring
    vguard = ring._varguard
    elements, heads, msigs = state.elements, state.heads, state.msigs
    stats, events, heap = state.stats, state.events, state._heap
    snap = state.positions[-1]
    a = state.positions[a]
    ea, ha, memo_a = elements[a - 1], heads[a], msigs[a - 1]
    siga, dega = ea.sig, sum(ea.poly.ht)
    ia = siga.index
    seq = state._pair_seq
    for b in others:
        if b == a:
            continue
        va, vb = lcm_cofactors(ha, heads[b], vguard)
        ra = memo_a.get(va) or _component(memo_a, va, siga, ring)
        memo_b = msigs[b - 1]
        rb = memo_b.get(vb) or _component(memo_b, vb, elements[b - 1].sig, ring)
        stats.pairs_created += 1
        # component i carries the larger signature: the smaller index, then
        # the larger term
        ib = rb[5].index
        if ia == ib:
            ka, kb = _packed_term(ra, ring), _packed_term(rb, ring)
            if ka == kb:
                stats.signature_collisions += 1
                events.append(SignatureCollision(a, b, _msig(ra)))
                continue
            swap = ka < kb
        else:
            swap = ia > ib
        if swap:
            pair = CriticalPair(b, a, rb, ra, ra[2] + dega, snap)
        else:
            pair = CriticalPair(a, b, ra, rb, ra[2] + dega, snap)
        events.append(pair)
        seq += 1
        if _rejected(state, pair, "creation"):
            continue
        ri = pair.rec_i
        heapq.heappush(heap, (pair.degree, (-ri[5].index, _packed_term(ri, ring)), seq, pair))
    state._pair_seq = seq


def _rejected(state: BasisState, pair: CriticalPair, stage: str) -> bool:
    """Run the F5 criterion at creation, then the Rewritten criterion at
    either stage; record and count the rejection when one of them discards
    the pair.  The F5 criterion is each component record's verdict
    (``_f5_verdict``), component i first, as ``is_normalized`` reads it; it
    needs no snapshot: a witness has a larger index than the component it
    flags, so every witness is in the basis before the pair is made.  A
    rejection keeps the component and its first witness."""
    if stage == "creation":
        comp, hit = "i", _f5_verdict(pair.rec_i, state)
        if not hit:
            comp, hit = "j", _f5_verdict(pair.rec_j, state)
        if hit:
            state.stats.rejected_not_normalized += 1
            state.events.append(PairRejected(pair, "f5crit", stage, comp, hit, state_ref=state.ref))
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
    return _monicize(build_labeled_spol(
        pair.sig, pair.u_i, state.poly(pair.i), wi, pair.u_j, state.poly(pair.j), wj
    ))


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
            state.events.append(ReducedToZero(res.element.sig))
        elif res.kind == "reduced":
            pos = state.add_element(res.element, lp_rule)
            if state.opts.certify and state.opts.validate_witnesses:
                state.validate_witness(pos)
            _make_pairs(state, pos, state.active_positions())
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
    F: Sequence[Polynomial], opts: EngineOptions | None = None
) -> tuple[BasisState, list]:
    """Signature-based Groebner basis of <F>, computed index by index.

    Returns the final basis state (whose stored polynomials generate the same
    ideal and form a Groebner basis) and the event trace.
    """
    F, ring = check_generators(F)
    state = BasisState(ring, len(F), opts)
    for i, f in enumerate(F, 1):
        witness = ModuleVector.unit(i, ring) if state.opts.certify else None
        state.append_input(LabeledPoly(Signature(ring.zero_exp, i), f.monic(), witness))
    for k in range(state.m - 1, 0, -1):
        state.current_index = k
        state.events.append(IterationBegin(k))
        state._heap = []
        _make_pairs(state, k, state.active_positions())
        while state._heap:
            _, _, _, pair = heapq.heappop(state._heap)
            # An F5 witness has a larger index than the component it flags,
            # and every element added in this iteration has index k, so a
            # verdict taken at creation still holds; only rules can change.
            if _rejected(state, pair, "pop"):
                continue
            rule = state.add_rule(pair.sig.gamma, pair.sig.index)
            state.events.append(PairAdmitted(pair))
            _reduce_admitted(state, pair, rule)
    state.current_index = 1
    if state.opts.certify and state.opts.validate_witnesses:
        state.validate_witnesses()
    return state, state.events


def interreduce(state: BasisState) -> list[Polynomial]:
    """Unique reduced monic Groebner basis of the state's basis.

    The state holds a Groebner basis, so its redundant elements are dropped
    (``minimal_basis``) before autoreduction instead of being reduced to
    zero.  Autoreduce any other sequence with ``reduced_basis``.
    """
    return reduced_basis(minimal_basis(state.polys()))


def rejection_events(state: BasisState) -> list[PairRejected]:
    return [e for e in state.events if isinstance(e, PairRejected)]


def certify_all(state: BasisState) -> list:
    """Build and verify a certificate for every criterion rejection."""
    return [certify_rejection(ev.pair, ev, state) for ev in rejection_events(state)]
