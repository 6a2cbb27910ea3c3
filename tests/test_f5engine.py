import gc
import random
import sys
import weakref
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siggb.baseline import buchberger_basis, ideal_equal
from siggb.f5engine import (
    BasisState,
    CriticalPair,
    ElementAdded,
    EngineError,
    EngineOptions,
    IterationBegin,
    PairAdmitted,
    PairCreated,
    PairRejected,
    SignatureCollision,
    TRResult,
    _all_f5_witnesses,
    _component,
    _f5_verdict,
    _find_reductor,
    _make_pairs,
    _msig,
    _packed_term,
    component_f5_witnesses,
    component_rewriter,
    first_f5_witness,
    incremental_basis,
    interreduce,
    is_normalized,
    is_rewritable,
    rejection_events,
    top_reduction_signed,
)
import siggb.f5engine as f5engine
import siggb.polyring
import siggb.signature
import siggb.syzygy
from siggb.corpus import corpus_shapes, cyclic, katsura, random_ideal
from siggb.polyring import (
    QQ,
    Cmp,
    DomainError,
    Field,
    MonomialOrder,
    PolyRing,
    Polynomial,
    Reducers,
    StructureError,
    exp_divides,
    exp_mul,
    lcm_cofactors,
    lcm_term,
    minimal_basis,
    reduce_full,
    reduced_basis,
    top_reduce,
    spol,
    _step,
)
from siggb.signature import LabeledPoly, Signature, sig_mul
from siggb.falsifier import scan_run
from siggb.syzygy import ModuleVector, evaluate
from test_polyring import ref_reduce_full, ref_top_reduce


def _record(state, pos, u):
    """The state's component record of u * r_pos, made as the engine makes
    it when it has none."""
    ring = state.ring
    memo, v = state.msigs[pos - 1], ring.pack(u) & ring._varmask
    return memo.get(v) or _component(memo, v, state.sig(pos), ring)


def _pair(state, i, j, ui, uj):
    """Build a pair for criterion unit tests (i carries the larger side),
    holding the state's own component records, as the engine's pairs do."""
    l = lcm_term(state.poly(i).ht, state.poly(j).ht)
    return CriticalPair(
        i=i, j=j, rec_i=_record(state, i, ui), rec_j=_record(state, j, uj),
        degree=sum(l), snapshot=state.size,
    )


# -- golden run ---------------------------------------------------------------------

def test_golden_reduced_basis(golden_state, golden_expected):
    assert interreduce(golden_state) == golden_expected


def test_golden_positions_and_signatures(golden_state, golden_ring):
    ring = golden_ring
    sigs = {pos: golden_state.sig(pos).render(ring) for pos in range(1, golden_state.size + 1)}
    assert sigs[1] == "e1" and sigs[2] == "e2" and sigs[3] == "e3"
    assert sigs[6] == "x*e1"
    assert sigs[7] == "x^2*e1"
    assert sigs[8] == "x^2*z*e1"
    assert sigs[9] == "x^3*e1"
    # the stored ninth element is the partially reduced S-polynomial, monic,
    # not its full normal form
    assert golden_state.poly(9) == ring.parse("x^5*t^2 - y^2*z^3*t^2")
    assert golden_state.poly(9) != ring.parse("x^5*t^2 - z^2*t^5")


def test_golden_stats(golden_state):
    s = golden_state.stats
    assert s.pairs_created == 45
    assert s.rejected_not_normalized == 32
    assert s.rejected_rewritable == 6
    assert s.signature_collisions == 0
    assert s.reductions_to_zero == 0
    assert s.elements_added == 7


def test_single_generator():
    ring = PolyRing(("x", "y"))
    f = ring.parse("3x^2 + 3y")
    state, _ = incremental_basis([f])
    assert state.size == 1
    assert state.poly(1) == ring.parse("x^2 + y")
    assert state.stats.pairs_created == 0


def test_two_coprime_generators():
    ring = PolyRing(("x", "y"))
    F = [ring.parse("x"), ring.parse("y")]
    state, _ = incremental_basis(F)
    assert interreduce(state) == [ring.parse("y"), ring.parse("x")]
    # the single pair was discarded and its plain S-polynomial reduces to zero
    rejected = rejection_events(state)
    assert len(rejected) == 1
    _, _, s = spol(state.poly(rejected[0].pair.i), state.poly(rejected[0].pair.j))
    assert top_reduce(s, [p for p in state.polys()]).is_zero


@pytest.mark.parametrize("engine", (incremental_basis, buchberger_basis), ids=("f5", "gm"))
def test_generator_check_refusals(engine):
    # both engines run one generator check, with the same errors and messages
    ring, other = PolyRing(("x",)), PolyRing(("x", "y"))
    with pytest.raises(DomainError, match="^empty generator sequence$"):
        engine([])
    for gens in ([ring.zero], [ring.parse("x"), ring.zero]):
        with pytest.raises(DomainError, match="^zero generator$"):
            engine(gens)
    with pytest.raises(StructureError, match="^generators from different rings$"):
        engine([ring.parse("x"), other.parse("x")])


# -- criteria ------------------------------------------------------------------------

def test_is_normalized_known_rejections(golden_state):
    # z^2 r6 vs y^2t r1: z^2 * x = xz^2 is divisible by HT(p2), index 2 > 1
    pair = _pair(golden_state, 6, 1, (0, 0, 2, 0), (0, 2, 0, 1))
    v = is_normalized(pair, golden_state)
    assert not v.normalized and v.component == "i" and v.witness == 2
    # y r7 vs z^2t r1: y * x^2 = x^2y = HT(p3), index 3 > 1
    pair = _pair(golden_state, 7, 1, (0, 1, 0, 0), (0, 0, 2, 1))
    v = is_normalized(pair, golden_state)
    assert not v.normalized and v.component == "i" and v.witness == 3


def test_is_normalized_both_components(golden_state):
    # y^3 r7 vs z^4 r6: both sides have witnesses and the trace lists them all
    pair = _pair(golden_state, 7, 6, (0, 3, 0, 0), (0, 0, 4, 0))
    v = is_normalized(pair, golden_state)
    assert not v.normalized
    witnesses = _all_f5_witnesses(pair, golden_state)
    assert ("i", 3) in witnesses and ("j", 2) in witnesses


def test_is_normalized_top_index_trivial():
    # components of maximal index cannot have a witness
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("x*y")))
    state.current_index = 1
    extra = LabeledPoly(Signature((0, 1), 2), ring.parse("y^3"))
    rule = state.add_rule((0, 1), 2)
    state.add_element(extra, rule)
    pair = _pair(state, 3, 2, (1, 0), (0, 2))
    assert is_normalized(pair, state).normalized


def _eager_witnesses(pair, state, snapshot):
    """Every F5 witness of both components among the first snapshot
    positions, by a full scan without masks."""
    out = []
    for comp in ("i", "j"):
        u, pos = pair.component(comp)
        sig = state.sig(pos)
        t = exp_mul(u, sig.gamma)
        for prev in range(1, snapshot + 1):
            if state.sig(prev).index > sig.index and exp_divides(state.poly(prev).ht, t):
                out.append((comp, prev))
    return out


def _pop_snapshots(state):
    """(pair, basis size at pop time) for every pair popped in a run."""
    size = state.m
    for ev in state.events:
        if isinstance(ev, ElementAdded):
            size += 1
        elif isinstance(ev, PairAdmitted) or (
            isinstance(ev, PairRejected) and ev.stage == "pop"
        ):
            yield ev.pair, size


def _eager_first(msig, state, snapshot):
    """First F5 witness of msig among the first snapshot positions, by a
    full scan without masks; 0 when there is none."""
    for prev in range(1, snapshot + 1):
        if state.sig(prev).index > msig.index and exp_divides(state.poly(prev).ht, msig.gamma):
            return prev
    return 0


def _spy_first_witness(monkeypatch):
    """Record every F5-criterion query as (caller, k0, packed term, basis
    seen, answer), the caller being the one that asked for a component
    record's verdict (``_f5_verdict``), directly or through a pair's walk
    over its records (``f5_hit``)."""
    calls = []
    real = f5engine.first_f5_witness

    def spy(k0, e, state):
        hit = real(k0, e, state)
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("_f5_verdict", "f5_hit"):
            frame = frame.f_back
        calls.append((frame.f_code.co_name, k0, e, state.size, hit))
        return hit

    monkeypatch.setattr(f5engine, "first_f5_witness", spy)
    return calls


def _lex(gens):
    ring = gens[0].ring
    lex = PolyRing(ring.names, ring.field, MonomialOrder("lex"))
    return [lex.build(dict(g.terms)) for g in gens]


def test_engine_takes_the_cofactors_it_holds(golden_gens, golden_expected, monkeypatch):
    # pair and split S-polynomials take the cofactors of pair creation and
    # of the reductor search: no run reaches the tuple lcm of ``spol``
    def boom(*args):
        raise AssertionError("tuple lcm reached from incremental_basis")

    for mod in (siggb.polyring, siggb.signature, f5engine, siggb.syzygy):
        for name in ("spol", "lcm_term", "exp_div"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    certified = EngineOptions(certify=True, validate_witnesses=True)
    for opts in (None, certified):
        assert interreduce(incremental_basis(golden_gens, opts=opts)[0]) == golden_expected
        state, _ = incremental_basis(_lex(cyclic(4)), opts=opts)
        assert state.stats.splits == 2


def test_first_witness_matches_eager_scan(golden_gens, monkeypatch):
    # the engine's F5 answers take no snapshot; the eager scan cuts at the
    # basis each pair saw, and the two must agree on every pair and on every
    # verdict a component record keeps
    calls = _spy_first_witness(monkeypatch)
    certified = EngineOptions(certify=True, validate_witnesses=True)
    runs = [(golden_gens, None), (cyclic(4), None), (katsura(4), None), (cyclic(5), None),
            (katsura(4, p=None), certified), (_lex(cyclic(4)), None)]
    for gens, opts in runs:
        calls.clear()
        state, events = incremental_basis(gens, opts=opts)
        ring = state.ring
        engine_calls = len(calls)
        pairs = [ev for ev in events if isinstance(ev, PairCreated)]
        assert pairs
        for pair in pairs:
            for comp in ("i", "j"):
                u, pos = pair.component(comp)
                assert pair.msig(comp) == sig_mul(u, state.sig(pos))
            eager = _eager_witnesses(pair, state, pair.snapshot)
            v = is_normalized(pair, state)
            assert v.normalized == (not eager)
            if eager:
                assert (v.component, v.witness) == eager[0]
                assert _all_f5_witnesses(pair, state) == tuple(eager)
        for ev in rejection_events(state):
            if ev.kind == "f5crit":
                eager = _eager_witnesses(ev.pair, state, ev.pair.snapshot)
                assert ev.witnesses == tuple(eager)
                assert (ev.component, ev.witness) == eager[0]
        memo_size = sum(len(table.reducers.first) for table in state.f5_tables.values())
        scan_run(state)
        # the scan asks only what pair creation asked, so it adds no entry
        assert sum(len(table.reducers.first) for table in state.f5_tables.values()) == memo_size
        # every answer comes from pair creation or the reductor search; the
        # verdicts read above and by the scan are the ones the records keep
        callers = {c for c, *_ in calls}
        assert callers == {"_rejected", "_find_reductor"}
        assert len(calls) == engine_calls
        keys = {(k0, e, seen, hit) for _, k0, e, seen, hit in calls}
        for k0, e, seen, hit in keys:
            assert hit == _eager_first(Signature(ring.unpack(e), k0), state, seen)
        # a record is asked once and keeps the answer it got, far fewer
        # queries than the components the pairs read
        records = [rec for memo in state.msigs for rec in memo.values() if rec[4] is not None]
        assert len(records) == len(calls) < 2 * len(pairs)
        answers = {}
        for k0, e, seen, hit in keys:
            answers.setdefault((k0, e), set()).add(hit)
        for rec in records:
            assert answers[rec[5].index, rec[3]] == {rec[4]}
        for k0, table in state.f5_tables.items():
            # the memo maps a packed term to a reducer index, or to ~k once
            # none of the k candidates divides it
            for e, i in table.reducers.first.items():
                assert i >= 0 or ~i == len(table.cands)
                hit = table.cands[i] if i >= 0 else 0
                assert hit == _eager_first(Signature(state.ring.unpack(e), k0), state, state.size)
            # the witness lists the rejections above read, memoised uncut
            # by packed term
            for e, every in table.every.items():
                t = ring.unpack(e)
                assert list(every) == [
                    pos for pos in range(1, state.size + 1)
                    if state.sig(pos).index > k0 and exp_divides(state.poly(pos).ht, t)
                ]
        assert any(table.every for table in state.f5_tables.values())
        # what lets the engine skip the F5 recheck at pop: no popped pair
        # has a witness in the basis as it stood when it was popped
        popped = list(_pop_snapshots(state))
        assert popped
        for pair, snap in popped:
            assert not _eager_witnesses(pair, state, snap)


def test_first_witness_memo_sees_a_later_larger_index_element():
    # the engine never appends an element of larger index than a component
    # it has judged, but a state built by hand may
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("y^3")))
    state.current_index = 1
    assert first_f5_witness(1, ring.pack((1, 1)), state) == 0
    assert first_f5_witness(1, ring.pack((0, 3)), state) == 2
    assert first_f5_witness(2, ring.pack((1, 1)), state) == 0
    pos = state.add_element(LabeledPoly(Signature((1, 0), 2), ring.parse("x*y")),
                            state.add_rule((1, 0), 2))
    assert first_f5_witness(1, ring.pack((1, 1)), state) == pos
    assert component_f5_witnesses(1, ring.pack((1, 1)), state) == (pos,)
    # tables of the element's own index and above stay
    assert 2 in state.f5_tables
    # through a pair whose component i is x*y * r_1, with term x*y
    pair = _pair(state, 1, 2, (1, 1), (2, 0))
    v = is_normalized(pair, state)
    assert not v.normalized and (v.component, v.witness) == ("i", pos)


def test_append_resets_the_verdicts_of_the_tables_it_drops():
    # a pair's component records keep their F5 verdicts; a hand-built state
    # that then appends an element of larger index must not read a verdict
    # taken before that element existed
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("y^3")))
    state.current_index = 1
    pair = _pair(state, 1, 2, (1, 1), (2, 0))
    assert is_normalized(pair, state).normalized
    assert (pair.rec_i[4], pair.rec_j[4]) == (0, 0)
    pos = state.add_element(LabeledPoly(Signature((1, 0), 2), ring.parse("x*y")),
                            state.add_rule((1, 0), 2))
    # the index-1 record is reset with the index-1 table; the index-2 one,
    # whose candidates the element does not join, keeps its verdict
    assert (pair.rec_i[4], pair.rec_j[4]) == (None, 0)
    v = is_normalized(pair, state)
    assert not v.normalized and (v.component, v.witness) == ("i", pos)


def test_f5_query_refuses_a_term_outside_the_packed_field():
    # the F5 queries test divisibility on packed monomials, so a term that
    # does not fit one raises DomainError, as a product that leaves its
    # field does: the first-witness query and the witness listing both
    # where the component record packs the term, and neither caches it
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("y^3")))
    state.current_index = 1
    pos = state.add_element(LabeledPoly(Signature((2**30, 0), 1), ring.parse("x*y")),
                            state.add_rule((2**30, 0), 1))
    # the products x^(2^31) and x^(2^30) y^(2^30), of degree 2^31
    for u in ((2**30, 0), (0, 2**30)):
        rec = _record(state, pos, u)
        with pytest.raises(DomainError):
            _f5_verdict(rec, state)
        assert rec[3] is None and rec[4] is None
        pair = _pair(state, pos, 1, u, (1, 0))
        assert pair.rec_i is rec
        with pytest.raises(DomainError, match="does not fit a packed monomial"):
            _all_f5_witnesses(pair, state)
        with pytest.raises(DomainError, match="does not fit a packed monomial"):
            PairRejected(pair, "f5crit", "creation", "i", 2).render(state)
        assert rec[3] is None and rec[4] is None
        assert not any(table.every for table in state.f5_tables.values())
    assert _f5_verdict(_record(state, 1, (0, 2**30)), state) == 2


def test_no_pop_stage_f5_rejections_on_corpus(corpus_runs):
    # the engine takes the F5 criterion at creation only; that is sound when
    # no popped pair has an F5 witness in the basis as it stood at its pop
    popped = 0
    for run in corpus_runs:
        state = run["state"]
        for pair, snap in _pop_snapshots(state):
            popped += 1
            assert not _eager_witnesses(pair, state, snap), (run["name"], pair.i, pair.j)
    assert popped


def test_is_rewritable_empty_rule_table(golden_gens):
    state, _ = incremental_basis(golden_gens[:1])
    # a self-pair style probe: only the input's own rule exists
    pair = _pair(state, 1, 1, (0, 0, 0, 0), (0, 0, 0, 0))
    assert is_rewritable(pair, state) is None


def test_rewriter_names_a_newer_rule_added_after_a_query(monkeypatch):
    # a component record keeps its Rewritten verdict between queries; a
    # dividing rule added after a query is newer than the kept divisor, so
    # the next query must name it, and a query with no new rule walks none
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("y^3")))
    state.current_index = 1
    pos = state.add_element(LabeledPoly(Signature((0, 1), 1), ring.parse("x*y")),
                            state.add_rule((0, 1), 1))
    calls = []
    real = f5engine.exp_divides

    def spy(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(f5engine, "exp_divides", spy)
    rec = _record(state, pos, (1, 0))  # x * y*e1, term x*y
    # its own rule is the newest divisor: not rewritable
    assert component_rewriter(rec, pos, state) is None
    assert rec[6:] == [2, state.element_rule[pos - 1]]
    walked = len(calls)
    assert component_rewriter(rec, pos, state) is None
    assert len(calls) == walked
    newer = state.add_rule((1, 0), 1)
    assert component_rewriter(rec, pos, state) is newer
    assert len(calls) == walked + 1
    # a rule that does not divide x*y leaves the kept divisor deciding
    state.add_rule((2, 0), 1)
    assert component_rewriter(rec, pos, state) is newer
    walked = len(calls)
    assert component_rewriter(rec, pos, state) is newer
    assert len(calls) == walked
    newest = state.add_rule((1, 1), 1)
    assert component_rewriter(rec, pos, state) is newest
    # the same term through another position: the same divisor, compared
    # with that position's own rule
    assert component_rewriter(_record(state, 1, (1, 1)), 1, state) is newest
    other = _record(state, pos, (0, 0))  # y*e1 itself, divided by its own rule alone
    assert component_rewriter(other, pos, state) is None
    assert other[7] is state.element_rule[pos - 1]
    # through a pair: component i first, then j
    pair = _pair(state, pos, 2, (1, 0), (0, 0))
    assert is_rewritable(pair, state) == ("i", newest)
    pair = _pair(state, pos, 2, (0, 0), (0, 0))
    assert is_rewritable(pair, state) is None


def _rewriter_from_scratch(rec, pos, state):
    """The rule that rewrites a record's component, by a newest-first walk
    over every rule of its index with no mask and no memo."""
    t = tuple(map(add, rec[0], rec[5].gamma))
    for rule in reversed(state.rules.get(rec[5].index, [])):
        if exp_divides(rule.gamma, t):
            return None if rule is state.element_rule[pos - 1] else rule
    return None


def test_kept_rewritten_verdicts_match_a_walk_from_scratch(golden_gens, monkeypatch):
    # every Rewritten answer of a run, from pair creation, pops and the
    # reductor search, is the one a walk over all rules gives
    real = f5engine.component_rewriter
    resumed = kept = rewritten = 0

    def spy(rec, pos, state):
        nonlocal resumed, kept, rewritten
        if len(rec) > 6:
            n = len(state.rules.get(rec[5].index, []))
            resumed += rec[6] < n
            kept += rec[6] == n
        rule = real(rec, pos, state)
        assert rule is _rewriter_from_scratch(rec, pos, state)
        rewritten += rule is not None
        return rule

    monkeypatch.setattr(f5engine, "component_rewriter", spy)
    certified = EngineOptions(certify=True, validate_witnesses=True)
    for gens, opts in ((golden_gens, None), (cyclic(4), None), (cyclic(5), None),
                       (katsura(4, None), certified), (_lex(cyclic(4)), None)):
        state, _ = incremental_basis(gens, opts=opts)
        assert state.stats.rejected_rewritable
    assert resumed and kept and rewritten


def test_rejections_match_worked_examples(golden_state):
    """The six discards the run narrative pins, identified by
    (multiplier, signature) of the flagged component."""
    ring = golden_state.ring
    seen = set()
    for ev in rejection_events(golden_state):
        u, pos = ev.pair.component(ev.component)
        seen.add((ev.kind, ring.render_exp(u), golden_state.sig(pos).render(ring)))
    assert ("rewrite", "x^2", "e1") in seen
    assert ("rewrite", "x*z", "x*e1") in seen
    assert ("rewrite", "x", "x^2*z*e1") in seen
    assert ("f5crit", "z^2", "x*e1") in seen
    assert ("f5crit", "y^3", "x^2*e1") in seen
    assert ("f5crit", "y", "x^2*e1") in seen


def test_rejection_soundness_golden(golden_state):
    basis = golden_state.polys()
    for ev in rejection_events(golden_state):
        _, _, s = spol(golden_state.poly(ev.pair.i), golden_state.poly(ev.pair.j))
        assert top_reduce(s, basis).is_zero


# -- what a run keeps ------------------------------------------------------------------

def test_state_is_freed_by_refcount(golden_gens):
    # no record of a run refers back to its state, so dropping the state and
    # its events frees it without the cyclic collector
    certified = EngineOptions(certify=True, validate_witnesses=True)
    for gens in (golden_gens, cyclic(4)):
        for opts in (None, certified):
            enabled = gc.isenabled()
            gc.disable()
            try:
                state, events = incremental_basis(gens, opts=opts)
                rejected = next(ev for ev in events
                                if isinstance(ev, PairRejected) and ev.kind == "f5crit")
                assert rejected.witnesses
                ref = weakref.ref(state)
                del state, events
                assert ref() is None
            finally:
                if enabled:
                    gc.enable()
            # a rejection lists its witnesses only while its state lives
            with pytest.raises(StructureError):
                rejected.witnesses


def test_listing_witnesses_builds_no_multiplied_signature(golden_gens):
    # an F5 rejection lists and renders its witnesses by its records'
    # packed terms, so a record whose multiplied signature nothing built
    # still has none afterwards
    for gens in (golden_gens, cyclic(4)):
        state, events = incremental_basis(gens)
        rejected = [ev for ev in events if isinstance(ev, PairRejected) and ev.kind == "f5crit"]
        lean = [rec for memo in state.msigs for rec in memo.values() if rec[1] is None]
        assert any(ev.pair.rec_i[1] is None for ev in rejected)
        for ev in rejected:
            assert ev.render(state).count("\n") + 1 == len(ev.witnesses) > 0
        assert all(rec[1] is None for rec in lean)


def test_cyclic5_pair_records_stay_lean():
    gens = cyclic(5)
    gc.collect()
    before = len(gc.get_objects())
    state, events = incremental_basis(gens)
    gc.collect()
    per_pair = (len(gc.get_objects()) - before) / state.stats.pairs_created
    assert per_pair <= 4, f"{per_pair:.2f} tracked objects retained per created pair"
    # components with equal (u, position) share one u and one signature
    seen = {}
    components = 0
    for pair in events:
        if isinstance(pair, PairCreated):
            for comp in ("i", "j"):
                u, pos = pair.component(comp)
                first = seen.setdefault((u, pos), (u, pair.msig(comp)))
                assert first[0] is u and first[1] is pair.msig(comp)
                components += 1
    assert len(seen) < components / 2


_TOP = 2**31 - 1  # the largest entry of a packed field


@st.composite
def _cofactor_case(draw):
    """A ring under degrevlex or lex in 1 to 6 variables and two exponent
    tuples that pack: entries up to 2^31 - 1, and under degrevlex a total
    degree up to that too.  Small entries come often, so that equal fields
    and zeros are common."""
    kind = draw(st.sampled_from(("degrevlex", "lex")))
    n = draw(st.integers(1, 6))
    ring = PolyRing(tuple(f"x{k}" for k in range(n)), Field(7), MonomialOrder(kind))

    def exps():
        e = []
        for _ in range(n):
            hi = _TOP - sum(e) if kind == "degrevlex" else _TOP
            e.append(draw(st.one_of(st.integers(0, min(2, hi)), st.integers(0, hi))))
        return tuple(draw(st.permutations(e)))

    return ring, exps(), exps()


@given(_cofactor_case())
@settings(max_examples=400, deadline=None)
def test_lcm_cofactors_match_tuple_max_and_sub(case):
    ring, a, b = case
    vmask = ring._varmask
    ka, kb = ring.pack(a), ring.pack(b)
    packs, unpacks = dict(ring._packcache), dict(ring._unpackcache)
    va, vb = lcm_cofactors(ka & vmask, kb & vmask, ring._varguard)
    sig = Signature(ring.zero_exp, 1)
    rec_a, rec_b = (_component({}, v, sig, ring) for v in (va, vb))
    # neither the kernel nor a record puts a variable-fields int, which
    # under degrevlex is no packed monomial, into the pack caches
    assert ring._packcache == packs and ring._unpackcache == unpacks
    l = tuple(map(max, a, b))
    ua, ub = tuple(map(sub, l, a)), tuple(map(sub, l, b))
    # a record is [u, u * Sig, deg u, packed term, F5 verdict, Sig], the
    # multiplied signature, the term and the verdict None until first read
    assert ring.unpack_vars(va) == rec_a[0] == ua
    assert ring.unpack_vars(vb) == rec_b[0] == ub
    assert (rec_a[2], rec_b[2]) == (sum(ua), sum(ub))
    assert rec_a[1] is None and rec_a[3] is None and rec_a[4] is None
    assert rec_a[5] is rec_b[5] is sig
    for rec, u in ((rec_a, ua), (rec_b, ub)):
        msig = _msig(rec)
        assert msig == sig_mul(u, sig) == Signature(u, 1) and _msig(rec) is msig
        assert _packed_term(rec, ring) == ring.pack(msig.gamma)
    # u_a divides b and u_b divides a, so both pack; the lcm packs under lex
    assert va == ring.pack(ua) & vmask and vb == ring.pack(ub) & vmask
    assert (ka & vmask) + va == (kb & vmask) + vb
    if ring.order.kind == "lex":
        assert ka + va == ring.pack(l)


def _near_the_edge(draw, kind, n, u):
    """An exponent tuple Gamma that packs, with entries often at or one
    past the rest of u's field below 2^31 - 1, or, under degrevlex, of its
    total degree, so that u * Gamma lands at or just outside the edge."""
    gamma = []
    for k in range(n):
        hi = _TOP - sum(gamma) if kind == "degrevlex" else _TOP
        edges = [_TOP - u[k], _TOP - u[k] + 1]
        if kind == "degrevlex":
            edges += [_TOP - sum(u) - sum(gamma), _TOP - sum(u) - sum(gamma) + 1]
        edges = sorted({min(max(x, 0), hi) for x in edges})
        gamma.append(draw(st.one_of(st.integers(0, min(2, hi)), st.sampled_from(edges),
                                    st.integers(0, hi))))
    return tuple(gamma)


@st.composite
def _product_case(draw):
    ring, u, _ = draw(_cofactor_case())
    return ring, u, _near_the_edge(draw, ring.order.kind, ring.nvars, u)


@given(_product_case())
@settings(max_examples=400, deadline=None)
def test_packed_term_raises_where_packing_the_product_would(case):
    # a record's packed term is pack(u) + pack(Gamma), whose guard test must
    # refuse exactly the products that pack(u * Gamma) refuses
    ring, u, gamma = case
    sig = Signature(gamma, 1)
    # making the record, and building its signature, packs nothing
    rec = _component({}, ring.pack(u) & ring._varmask, sig, ring)
    product = _msig(rec).gamma
    assert product == tuple(map(add, u, gamma))
    try:
        expected = ring.pack(product)
    except DomainError:
        with pytest.raises(DomainError):
            _packed_term(rec, ring)
        assert rec[3] is None
    else:
        assert _packed_term(rec, ring) == expected == rec[3]


def test_pair_creation_raises_where_a_term_is_first_packed():
    # under lex, u * Gamma can leave its packed field; that raises
    # DomainError where a same-index comparison or an F5 query packs it,
    # and a component that neither asks about is never packed
    top = 2**31 - 1
    ring = PolyRing(("x", "y"), Field(7), MonomialOrder("lex"))

    def lex_state(second):
        # r_3 = x*y with signature x^top * e2: the cofactor x of any pair
        # with x^2 takes its term to x^(2^31), outside the field
        state = BasisState(ring, 2)
        state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2")))
        state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse(second)))
        state.add_element(LabeledPoly(Signature((top, 0), 2), ring.parse("x*y")),
                          state.add_rule((top, 0), 2))
        state.current_index = 1
        state._heap = []
        return state

    # y * e1 has no witness, so the F5 query packs component j and raises
    # after the pair is made and recorded
    state = lex_state("y^3")
    with pytest.raises(DomainError):
        _make_pairs(state, 1, [3])
    pair = state.events[-1]
    assert isinstance(pair, PairCreated) and (pair.i, pair.j) == (1, 3)
    assert pair.sig_j == Signature((top + 1, 0), 2)
    assert state.stats.pairs_created == 1 and not state.stats.rejected_not_normalized
    # y * e1 has the witness y: the pair is rejected on component i, and
    # component j, never asked about, never packs
    state = lex_state("y")
    _make_pairs(state, 1, [3])
    rejection = state.events[-1]
    assert isinstance(rejection, PairRejected) and rejection.kind == "f5crit"
    assert (rejection.component, rejection.witness) == ("i", 2)
    assert state.msigs[2][ring.pack((1, 0))][3] is None
    # a same-index pair compares the two terms: x * x^top * e2 raises
    # there, before any pair or collision is recorded
    state = lex_state("x^2")
    events = len(state.events)
    with pytest.raises(DomainError):
        _make_pairs(state, 3, [2])
    assert state.stats.pairs_created == 1 and len(state.events) == events
    # the reductor search on x^2*y: the eligible r_1 comes first, and the
    # overflowing multiple x * r_3 is never asked about; once r_1 is no
    # longer active, that multiple raises at its F5 query
    state = lex_state("y^3")
    found = _find_reductor(ring.pack((2, 1)), Signature((5, 5), 1), state)
    assert found[:2] == ((0, 1), 1)
    state.current_index = 2
    with pytest.raises(DomainError):
        _find_reductor(ring.pack((2, 1)), Signature((5, 5), 1), state)


def _check_pair_fates(state):
    """Every created pair has exactly one recorded fate, a later
    ``PairRejected`` (at creation or at pop) or ``PairAdmitted`` naming it,
    and the stats add up: pairs created = signature collisions + both kinds
    of rejection + admitted pairs."""
    stats = state.stats
    fates, admitted, collisions = {}, 0, 0
    for ev in state.events:
        if isinstance(ev, PairCreated):
            fates[id(ev)] = 0
        elif isinstance(ev, (PairRejected, PairAdmitted)):
            fates[id(ev.pair)] += 1  # a KeyError: no earlier PairCreated
            admitted += isinstance(ev, PairAdmitted)
        elif isinstance(ev, SignatureCollision):
            collisions += 1
    assert all(n == 1 for n in fates.values())
    assert collisions == stats.signature_collisions
    assert stats.pairs_created == (stats.signature_collisions + stats.rejected_not_normalized
                                   + stats.rejected_rewritable + admitted)
    assert stats.pairs_created == len(fates) + collisions


def test_every_pair_has_one_recorded_fate(corpus_runs, golden_state):
    for run in corpus_runs:
        _check_pair_fates(run["state"])
    _check_pair_fates(golden_state)
    for gens in (cyclic(5), katsura(5, p=None)):
        _check_pair_fates(incremental_basis(gens)[0])


def test_engine_runs_keep_the_pack_caches_whole(golden_gens):
    # the pair records and the reductor search key their memos on variable
    # fields, which under degrevlex are no packed monomials; the ring's pack
    # caches hold only whole packed monomials
    for gens in (golden_gens, cyclic(4), _lex(cyclic(4))):
        state, _ = incremental_basis(gens)
        ring = state.ring
        fresh = PolyRing(ring.names, ring.field, ring.order)
        assert ring._varcache
        assert all(fresh.pack(e) == k for e, k in ring._packcache.items())
        assert all(fresh.pack(e) == k for k, e in ring._unpackcache.items())


def test_pairs_of_one_batch_share_its_snapshot(golden_gens):
    # a batch is the pairs made at an iteration's start or for one new
    # element; each shares one int, the basis size the batch saw
    for gens in (golden_gens, cyclic(4), katsura(4)):
        state, events = incremental_basis(gens)
        size, batches = state.m, []
        for ev in events:
            if isinstance(ev, (IterationBegin, ElementAdded)):
                size += isinstance(ev, ElementAdded)
                batches.append((size, []))
            elif isinstance(ev, PairCreated):
                batches[-1][1].append(ev.snapshot)
        assert sum(bool(snaps) for _, snaps in batches) > 1
        for seen, snaps in batches:
            if snaps:
                assert all(snap is snaps[0] for snap in snaps)
                assert snaps[0] == seen


def test_pairs_share_the_state_position_ints():
    # past 256 positions Python makes a fresh int for each position it
    # computes; the pairs must hold the state's own
    ring = PolyRing(("x", "y"), Field(32003))
    n = 300
    state = BasisState(ring, 1)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse(f"y^{n}")))
    state.current_index = 1
    for i in range(1, n):
        rule = state.add_rule((i, 0), 1)
        state.add_element(LabeledPoly(Signature((i, 0), 1), ring.parse(f"x^{i}*y^{n - i}")), rule)
    state._heap = []
    _make_pairs(state, n, state.active_positions())
    pairs = [ev for ev in state.events if isinstance(ev, PairCreated)]
    assert len(pairs) == n - 1
    for pair in pairs:
        assert pair.i is state.positions[pair.i] and pair.j is state.positions[pair.j]
        assert pair.snapshot is state.positions[n]


# -- signature-safe reduction ----------------------------------------------------------

def test_top_reduction_reduced(golden_gens, golden_ring):
    state, _ = incremental_basis(golden_gens[:1])
    state2 = BasisState(golden_ring, 3)
    for i, f in enumerate(golden_gens, 1):
        state2.append_input(LabeledPoly(Signature(golden_ring.zero_exp, i), f.monic()))
    state2.current_index = 1
    r = LabeledPoly(Signature((1, 0, 0, 0), 1), golden_ring.parse("y^3*z*t - x^3*t^2"))
    out = top_reduction_signed(r, state2)
    assert out.kind == "reduced"
    assert out.element.sig == r.sig
    assert out.element.poly == r.poly


def test_top_reduction_zero(golden_state, golden_ring):
    r = LabeledPoly(Signature((9, 0, 0, 0), 1), golden_ring.zero)
    assert top_reduction_signed(r, golden_state).kind == "zero"


def test_top_reduction_split():
    # reductor with a larger multiplied signature returns two elements
    ring = PolyRing(("x", "y", "z"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0, 0), 1), ring.parse("x^2")))
    state.append_input(LabeledPoly(Signature((0, 0, 0), 2), ring.parse("z^3")))
    state.current_index = 1
    r = LabeledPoly(Signature((0, 0, 1), 2), ring.parse("x^2*y + y^3"))
    out = top_reduction_signed(r, state)
    assert out.kind == "split"
    assert out.element.poly == r.poly  # returned untouched
    assert out.new_element.sig == Signature((0, 1, 0), 1)  # y * e1
    assert out.new_element.poly == ring.parse("y^3")
    assert state.stats.splits == 1


def test_top_reduction_ordinary_preserves_signature():
    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("y^3")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("x - y")))
    state.current_index = 1
    # signature x^2 e1 dominates the reductor multiple x*(e2)
    r = LabeledPoly(Signature((2, 0), 1), ring.parse("x^2 + y^2"))
    out = top_reduction_signed(r, state)
    assert out.kind == "reduced"
    assert out.element.sig == r.sig
    assert state.stats.reduction_steps >= 1


def test_certified_reduction_detects_a_diverged_witness():
    ring = PolyRing(("x", "y"))
    opts = EngineOptions(certify=True, validate_witnesses=True)
    state = BasisState(ring, 2, opts)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("y^3")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("x - y")))
    state.current_index = 1
    # x^3 - x^2*y + y^3 = 1*r_1 + x^2*r_2; one step by x^2*r_2 leaves y^3
    witness = ModuleVector(ring, {1: ring.one, 2: ring.parse("x^2")})
    r = LabeledPoly(Signature((0, 0), 1), ring.parse("x^3 - x^2*y + y^3"), witness)
    out = top_reduction_signed(r, state)
    assert out.kind == "reduced" and state.stats.reduction_steps == 1
    assert out.element.witness == ModuleVector(ring, {1: ring.one})
    corrupt = LabeledPoly(r.sig, r.poly, witness + ModuleVector(ring, {1: ring.parse("x")}))
    with pytest.raises(EngineError, match="working witness diverged"):
        top_reduction_signed(corrupt, state)


@pytest.mark.parametrize("field", (Field(7), QQ))
def test_signed_step_raises_where_a_shifted_tail_leaves_its_field(field):
    # under lex each exponent has its own 31-bit field: the step by y * r_2
    # shifts r_2's tail y^(2^31 - 1) to y^(2^31), which no field holds
    ring = PolyRing(("x", "y"), field, MonomialOrder("lex"))
    state = BasisState(ring, 2)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("y^3")))
    state.append_input(LabeledPoly(Signature((0, 0), 2), ring.parse("x - 2*y^2147483647")))
    state.current_index = 1
    r = LabeledPoly(Signature((2, 0), 1), ring.parse("x*y + y^2"))
    with pytest.raises(DomainError):
        top_reduction_signed(r, state)
    assert state.stats.reduction_steps == 0


# -- differential: packed signed top reduction against the rescaling loop ---------------
#
# The reference is the loop the packed one replaced: every step is one
# sub_mul on the working polynomial, then a rescale of it and its witness to
# a monic head.  signed_case draws a case from a random.Random, or through
# hypothesis (_Draws); the seeded sweep below asserts that every outcome is
# reached in both fields, with and without certification.  The working
# polynomial is a random combination of basis elements, so its witness is
# right and the certified per-step check passes; reductors keep the head
# coefficients they are drawn with, and no term of a generated polynomial
# has a larger total degree than its head, so lex reductions stay short.

SIGNED_FIELDS = (Field(7), QQ)


def ref_monicize(lp):
    if lp.poly.is_zero:
        return lp
    f = lp.poly.ring.field
    c = lp.poly.hc
    if c == f.one:
        return lp
    inv = f.inv(c)
    w = lp.witness.scale(inv) if lp.witness is not None else None
    return LabeledPoly(lp.sig, lp.poly.scale(inv), w)


def ref_top_reduction_signed(r, state):
    ring, opts = state.ring, state.opts
    if r.poly.is_zero:
        return TRResult("zero", r)
    while True:
        found = _find_reductor(r.poly.packed[0][0], r.sig, state)
        if found is None:
            return TRResult("reduced", ref_monicize(r))
        u, pos, elt, cm = found
        if cm is Cmp.LT:
            c = ring.field.of(r.poly.hc * ring.field.inv(elt.poly.hc))
            poly = r.poly.sub_mul(c, u, elt.poly)
            witness = r.witness
            if witness is not None:
                witness = witness - ModuleVector.unit(pos, ring).mul_term(u, c)
            state.stats.reduction_steps += 1
            r = ref_monicize(LabeledPoly(r.sig, poly, witness))
            if opts.certify and opts.validate_witnesses and not r.poly.is_zero:
                if evaluate(r.witness, state) != r.poly:
                    raise EngineError("working witness diverged during reduction")
            if r.poly.is_zero:
                return TRResult("zero", r)
        else:
            new_sig = sig_mul(u, elt.sig)
            new_poly = elt.poly.mul_term(u, r.poly.hc).sub_mul(
                elt.poly.hc, ring.zero_exp, r.poly)
            new_witness = None
            if r.witness is not None:
                new_witness = ModuleVector.unit(pos, ring).mul_term(
                    u, r.poly.hc) - r.witness.mul_term(ring.zero_exp, elt.poly.hc)
            state.stats.splits += 1
            return TRResult(
                "split", r, ref_monicize(LabeledPoly(new_sig, new_poly, new_witness)))


def _random_poly(rng, ring, max_terms):
    """A nonzero polynomial in x, y, z: exponents up to 2, coefficients
    +-1..3, no term of a larger total degree than the head."""
    p = ring.build({
        tuple(rng.randint(0, 2) for _ in range(3)): ring.field.of(rng.choice((1, -1, 2, -2, 3, -3)))
        for _ in range(rng.randint(1, max_terms))
    })
    deg = sum(p.ht)
    return ring.build(t for t in p.terms if sum(t[0]) <= deg)


def signed_case(rng):
    """A basis state (inputs, then derived elements with their rules) and a
    working labeled polynomial for top_reduction_signed, as a function that
    builds a fresh copy each call."""
    ring = PolyRing(("x", "y", "z"), rng.choice(SIGNED_FIELDS),
                    MonomialOrder(rng.choice(("degrevlex", "lex"))))
    certify = rng.choice((False, True))
    opts = EngineOptions(certify=certify, validate_witnesses=certify and rng.choice((False, True)))
    m = rng.randint(1, 3)
    gamma = lambda: tuple(rng.randint(0, 2) for _ in range(3))
    inputs = [_random_poly(rng, ring, 4) for _ in range(m)]
    derived = [(Signature(gamma(), rng.randint(1, m)), _random_poly(rng, ring, 4))
               for _ in range(rng.randint(0, 2))]
    current_index = rng.randint(1, m)
    n = m + len(derived)
    entries = {rng.randint(1, n): _random_poly(rng, ring, 2) for _ in range(rng.randint(1, 2))}
    witness = ModuleVector(ring, entries)
    sig = Signature(gamma(), rng.randint(1, m))

    def build():
        state = BasisState(ring, m, opts)
        for i, f in enumerate(inputs, 1):
            state.append_input(LabeledPoly(Signature(ring.zero_exp, i), f))
        for dsig, f in derived:
            state.add_element(LabeledPoly(dsig, f), state.add_rule(dsig.gamma, dsig.index))
        state.current_index = current_index
        r = LabeledPoly(sig, evaluate(witness, state), witness if certify else None)
        return state, r

    return build


def _check_signed_against_reference(build):
    state, r = build()
    ref_state, ref_r = build()
    out = top_reduction_signed(r, state)
    ref = ref_top_reduction_signed(ref_r, ref_state)
    assert out.kind == ref.kind
    assert out.element == ref.element
    assert out.new_element == ref.new_element
    assert state.stats.reduction_steps == ref_state.stats.reduction_steps
    assert state.stats.splits == ref_state.stats.splits
    return r, out, state.stats.reduction_steps


class _Draws:
    """The two random.Random methods signed_case uses, drawn through
    hypothesis so that a failing case shrinks."""

    def __init__(self, data):
        self.data = data

    def randint(self, a, b):
        return self.data.draw(st.integers(a, b))

    def choice(self, seq):
        return self.data.draw(st.sampled_from(seq))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_signed_top_reduction_matches_rescaling_loop(data):
    _check_signed_against_reference(signed_case(_Draws(data)))


def test_signed_top_reduction_sweep_reaches_every_outcome():
    seen = set()
    for seed in range(400):
        r, out, steps = _check_signed_against_reference(signed_case(random.Random(seed)))
        field = r.poly.ring.field
        monic = not r.poly.is_zero and r.poly.hc == field.one
        seen.add((bool(field.p), r.witness is not None, monic, out.kind, min(steps, 2)))
    for prime in (True, False):
        for certified in (True, False):
            # a split after a step returns the rescaled working element; a
            # zero after two steps rescales its witness, after one it does not
            for kind, steps in (("reduced", 0), ("reduced", 2), ("split", 0), ("split", 1),
                                ("zero", 1), ("zero", 2)):
                assert (prime, certified, False, kind, steps) in seen


def test_reducers_and_signed_reductions_interleaved_on_one_ring():
    # two Reducers and the signed reductions of one state share the ring's
    # monomial ids and intern new ones in turn; a signed reduction repeated
    # on its state reuses the steps it memoised, and every result is the
    # dict-and-sort reference's
    for seed in range(60):
        rng = random.Random(seed)
        build = signed_case(rng)
        (state, r), (ref_state, ref_r) = build(), build()
        ring = state.ring
        lists = [[_random_poly(rng, ring, 4) for _ in range(rng.randint(1, 3))] for _ in "ab"]
        reducers = [Reducers(ring, polys) for polys in lists]
        for _ in range(3):
            q = _random_poly(rng, ring, 5)
            for red, polys in zip(reducers, lists):
                assert reduce_full(q, red) == ref_reduce_full(q, polys)
                assert top_reduce(q, red) == ref_top_reduce(q, polys)
            out = top_reduction_signed(r, state)
            ref = ref_top_reduction_signed(ref_r, ref_state)
            assert (out.kind, out.element, out.new_element) == (
                ref.kind, ref.element, ref.new_element)
            g = _random_poly(rng, ring, 3)
            lists[0].append(g)
            reducers[0].append(g)


def test_signed_step_memo_holds_fresh_steps(golden_gens):
    # a position's memo maps a monomial's id to the step that reduces it by
    # that position's element, the one _step builds afresh
    built = steps = 0
    certified = EngineOptions(certify=True, validate_witnesses=True)
    for gens in (golden_gens, katsura(4), katsura(4, None), _lex(cyclic(4)), cyclic(5)):
        for opts in (None, certified):
            state, _ = incremental_basis(gens, opts=opts)
            ring = state.ring
            assert len(state.steps) == state.size
            for pos, memo in enumerate(state.steps, 1):
                for i, step in memo.items():
                    assert step == _step(state.poly(pos), -ring._negs[i], ring)
                built += len(memo)
            steps += state.stats.reduction_steps
    # each (position, monomial) step is built once, however often it is taken
    assert 0 < built < steps


def test_signed_steps_of_a_position_share_one_coefficient_tuple(golden_gens):
    # a step's coefficients are its reducer's tail, which depends on the
    # reducer alone: every step a position's memo keeps holds one tuple
    shared = 0
    for gens in (golden_gens, katsura(4), katsura(4, None), _lex(cyclic(4)), cyclic(5)):
        state, _ = incremental_basis(gens)
        for pos, memo in enumerate(state.steps, 1):
            tails = {id(step[2]) for step in memo.values()}
            assert tails <= {id(state.poly(pos)._tail)}
            shared += len(memo) > 1
    assert shared


def test_engines_on_generators_from_equal_rings_that_are_other_objects(golden_gens):
    # every other generator comes from an equal ring built separately, whose
    # monomial ids are its own: both engines give what they give on one ring
    certified = EngineOptions(certify=True, validate_witnesses=True)
    for gens in (golden_gens, katsura(4), katsura(4, None), _lex(cyclic(4)), cyclic(5)):
        ring = gens[0].ring
        twin = PolyRing(ring.names, ring.field, ring.order)
        twin.intern(tuple((k, 1) for g in reversed(gens) for k, _ in g.packed))
        mixed = [Polynomial(twin, g.packed) if i % 2 else g for i, g in enumerate(gens)]
        assert buchberger_basis(mixed) == buchberger_basis(gens)
        for opts in (None, certified):
            (state, trace), (want, want_trace) = (incremental_basis(F, opts=opts)
                                                  for F in (mixed, gens))
            assert [state.poly(pos) for pos in range(1, state.size + 1)] == [
                want.poly(pos) for pos in range(1, want.size + 1)]
            assert state.stats == want.stats
            assert [ev.render(state) for ev in trace] == [ev.render(want) for ev in want_trace]


# -- interreduce -----------------------------------------------------------------------

def test_interreduce_examples(golden_state, golden_expected):
    ring = PolyRing(("x", "y"))
    assert reduced_basis([ring.parse("x"), ring.parse("x + y")]) == [
        ring.parse("y"),
        ring.parse("x"),
    ]
    assert reduced_basis([ring.parse("x^2")]) == [ring.parse("x^2")]
    assert interreduce(golden_state) == golden_expected


def test_minimalized_interreduce_matches_plain_autoreduction():
    systems = [cyclic(4), katsura(4, p=None)]
    systems += [random_ideal(*shape) for shape in corpus_shapes(30)]
    for gens in systems:
        state, _ = incremental_basis(gens)
        out = interreduce(state)
        assert out == reduced_basis(state.polys())
        # a minimal Groebner basis has as many elements as the reduced one
        assert len(minimal_basis(state.polys())) == len(out)


def test_reduced_basis_of_a_groebner_basis_takes_one_round(monkeypatch):
    state, _ = incremental_basis(katsura(4))
    calls = []
    reduce_full = siggb.polyring.reduce_full

    def counted(p, basis):
        calls.append(p)
        return reduce_full(p, basis)

    monkeypatch.setattr(siggb.polyring, "reduce_full", counted)
    reduced_basis(state.polys())
    assert len(calls) == state.size
    calls.clear()
    out = interreduce(state)
    assert len(calls) == len(out) < state.size


# -- engine robustness -------------------------------------------------------------------

def test_oracle_equivalence_smoke():
    from siggb.corpus import random_ideal

    for seed in (1, 2, 3):
        gens = random_ideal(3, 2, 3, seed)
        state, _ = incremental_basis(gens)
        assert ideal_equal(interreduce(state), buchberger_basis(gens))


def test_criteria_knobs_preserve_correctness(golden_gens, golden_expected, monkeypatch):
    # skipping the criteria at creation, at pop, or at both changes the work
    # done, never the interreduced basis; cyclic-4 without any criterion
    # makes new elements without end, so there it keeps one of the stages
    real = f5engine._rejected
    gens4 = cyclic(4)
    expected4 = interreduce(incremental_basis(gens4)[0])
    cases = [(golden_gens, golden_expected, skip)
             for skip in ({"creation"}, {"pop"}, {"creation", "pop"})]
    cases += [(gens4, expected4, skip) for skip in ({"creation"}, {"pop"})]
    for gens, expected, skip in cases:
        monkeypatch.setattr(
            f5engine, "_rejected",
            lambda state, pair, stage, skip=skip:
                stage not in skip and real(state, pair, stage),
        )
        state, _ = incremental_basis(gens)
        assert not any(ev.stage in skip for ev in rejection_events(state))
        assert interreduce(state) == expected


def test_no_out_of_order_rules_on_golden(golden_state):
    from siggb.f5engine import RuleOutOfOrder

    assert not any(isinstance(ev, RuleOutOfOrder) for ev in golden_state.events)


def test_lex_order():
    from siggb.polyring import MonomialOrder

    ring = PolyRing(("x", "y", "z"), order=MonomialOrder("lex"))
    F = [ring.parse(s) for s in ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1")]
    state, _ = incremental_basis(F)
    out = interreduce(state)
    assert out == buchberger_basis(F)
    assert out == [ring.parse(s) for s in ("z^3 - 1", "y^2 + y*z + z^2", "x + y + z")]


def test_max_elements_guard(golden_gens):
    with pytest.raises(EngineError):
        incremental_basis(golden_gens, opts=EngineOptions(max_elements=4))


def test_duplicate_generators_reduce_to_zero():
    ring = PolyRing(("x", "y"))
    f = ring.parse("x^2 + y")
    state, _ = incremental_basis([f, f])
    assert state.stats.reductions_to_zero == 1
    assert ideal_equal(interreduce(state), buchberger_basis([f]))


def test_signature_collision_logged():
    # y * (x e1) = x * (y e1): the pair is dropped and logged, never reduced
    from siggb.f5engine import SignatureCollision, _make_pairs

    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 1)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2 + y^2")))
    state.current_index = 1
    for gamma, poly in (((1, 0), "x*y"), ((0, 1), "y^2")):
        rule = state.add_rule(gamma, 1)
        state.add_element(LabeledPoly(Signature(gamma, 1), ring.parse(poly)), rule)
    state._heap = []
    _make_pairs(state, 2, [3])
    assert state.stats.signature_collisions == 1
    assert not state._heap
    assert any(isinstance(ev, SignatureCollision) for ev in state.events)


def test_split_and_collision_instances_stay_sound():
    # shapes known to exercise the split path and real collisions
    from siggb.corpus import random_ideal
    from siggb.f5engine import certify_all

    gens = random_ideal(4, 3, 3, 209)
    state, _ = incremental_basis(gens, opts=EngineOptions(certify=True))
    assert state.stats.splits > 0
    assert state.stats.signature_collisions > 0
    assert ideal_equal(interreduce(state), buchberger_basis(gens))
    assert all(c.valid for c in certify_all(state))


def test_trace_renders(golden_state):
    text = "\n".join(ev.render(golden_state) for ev in golden_state.events)
    assert "PAIR d=5 sig=x*e1 (1,2)" in text
    assert "NEW pos=6 sig=x*e1 ht=y^3*z*t" in text
    assert "REDUCE pair=(1,2) sig=x*e1" in text
    assert "REJECT rewrite pair=(1,3) comp=i u=x^2 sig=e1 rule=6" in text
    assert "REJECT f5crit pair=(6,1) comp=i u=z^2 sig=x*e1 witness=2" in text
