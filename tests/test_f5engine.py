import random
import sys

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
    Snapshot,
    TRResult,
    _find_reductor,
    component_f5_witnesses,
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
from siggb.corpus import corpus_shapes, cyclic, katsura, random_ideal
from siggb.polyring import (
    QQ,
    Cmp,
    DomainError,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    exp_degree,
    exp_divides,
    exp_mul,
    lcm_term,
    minimal_basis,
    reduced_basis,
    top_reduce,
    spol,
)
from siggb.signature import LabeledPoly, Signature, sig_mul
from siggb.falsifier import scan_run
from siggb.syzygy import ModuleVector, evaluate


def _pair(state, i, j, ui, uj):
    """Build a pair record for criterion unit tests (i carries the larger side)."""
    l = lcm_term(state.poly(i).ht, state.poly(j).ht)
    from siggb.signature import sig_mul

    return CriticalPair(
        i=i, j=j, u_i=ui, u_j=uj, degree=exp_degree(l),
        sig=sig_mul(ui, state.sig(i)), sig_j=sig_mul(uj, state.sig(j)), seq=0,
        snapshot=Snapshot(state.size, state.current_index, 10**9),
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


def test_zero_generator_rejected():
    ring = PolyRing(("x",))
    with pytest.raises(DomainError):
        incremental_basis([ring.zero])
    with pytest.raises(DomainError):
        incremental_basis([])


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
    assert ("i", 3) in v.witnesses and ("j", 2) in v.witnesses


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
    """Every F5 witness of both components by a full scan, without masks."""
    out = []
    for comp in ("i", "j"):
        u, pos = pair.component(comp)
        sig = state.sig(pos)
        t = exp_mul(u, sig.gamma)
        for prev in state.active_positions(snapshot):
            if state.sig(prev).index > sig.index and exp_divides(state.poly(prev).ht, t):
                out.append((comp, prev))
    return out


def _pop_snapshots(state):
    """(pair, basis at pop time) for every pair popped in a default run."""
    size, k = state.m, state.m
    for ev in state.events:
        if isinstance(ev, IterationBegin):
            k = ev.index
        elif isinstance(ev, ElementAdded):
            size += 1
        elif isinstance(ev, PairAdmitted) or (
            isinstance(ev, PairRejected) and ev.stage == "pop"
        ):
            yield ev.pair, Snapshot(size, k, 10**9)


def _eager_first(msig, state, snapshot):
    """First F5 witness of msig in the basis a snapshot saw, by a full scan
    without masks; 0 when there is none."""
    for prev in state.active_positions(snapshot):
        if state.sig(prev).index > msig.index and exp_divides(state.poly(prev).ht, msig.gamma):
            return prev
    return 0


def _spy_first_witness(monkeypatch):
    """Record every F5-criterion query as (caller, msig, basis seen, answer)."""
    calls = []
    real = f5engine.first_f5_witness

    def spy(msig, state, snapshot=None):
        hit = real(msig, state, snapshot)
        seen = snapshot or state.snapshot()
        calls.append((sys._getframe(1).f_code.co_name, msig, seen, hit))
        return hit

    monkeypatch.setattr(f5engine, "first_f5_witness", spy)
    return calls


def test_first_witness_matches_eager_scan(golden_gens, monkeypatch):
    calls = _spy_first_witness(monkeypatch)
    certified = EngineOptions(certify=True, validate_witnesses=True)
    runs = [(golden_gens, None), (cyclic(4), None), (katsura(4), None), (cyclic(5), None),
            (katsura(4, p=None), certified)]
    for gens, opts in runs:
        calls.clear()
        state, events = incremental_basis(gens, opts=opts)
        engine_calls = len(calls)
        pairs = [ev.pair for ev in events if isinstance(ev, PairCreated)]
        assert pairs
        for pair in pairs:
            for comp in ("i", "j"):
                u, pos = pair.component(comp)
                assert pair.msig(comp) == sig_mul(u, state.sig(pos))
            eager = _eager_witnesses(pair, state, pair.snapshot)
            v = is_normalized(pair, state, pair.snapshot)
            assert v.normalized == (not eager)
            if eager:
                assert (v.component, v.witness) == eager[0]
                assert v.witnesses == tuple(eager)
        for ev in rejection_events(state):
            if ev.kind == "f5crit":
                eager = _eager_witnesses(ev.pair, state, ev.pair.snapshot)
                assert ev.witnesses == tuple(eager)
                assert (ev.component, ev.witness) == eager[0]
        memo_size = sum(len(table.first) for table in state.f5_tables.values())
        scan_run(state)
        # the scan asks only what pair creation asked, so it adds no entry
        assert sum(len(table.first) for table in state.f5_tables.values()) == memo_size
        # every answer, memo hits included, from pair creation, the reductor
        # search and the post-run scan
        callers = {c for c, *_ in calls[:engine_calls]}
        assert callers == {"is_normalized", "_find_reductor"}
        assert len(calls) > engine_calls
        keys = {(msig, seen.max_pos, seen.min_index, hit) for _, msig, seen, hit in calls}
        assert len({msig for msig, *_ in keys}) < len(calls)
        for msig, max_pos, min_index, hit in keys:
            assert hit == _eager_first(msig, state, Snapshot(max_pos, min_index, 0))
        for k0, table in state.f5_tables.items():
            for t, hit in table.first.items():
                assert hit == _eager_first(Signature(t, k0), state, None)
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
    msig = Signature((1, 1), 1)
    assert first_f5_witness(msig, state) == 0
    assert first_f5_witness(Signature((0, 3), 1), state) == 2
    assert first_f5_witness(Signature((1, 1), 2), state) == 0
    pos = state.add_element(LabeledPoly(Signature((1, 0), 2), ring.parse("x*y")),
                            state.add_rule((1, 0), 2))
    assert first_f5_witness(msig, state) == pos
    assert component_f5_witnesses(msig, state) == [pos]
    # the basis a pair saw before the append still has no witness
    assert first_f5_witness(msig, state, Snapshot(2, 1, 0)) == 0
    # tables of the element's own index and above stay
    assert 2 in state.f5_tables
    # through a pair whose component i is x*y * r_1, with term x*y
    pair = _pair(state, 1, 2, (1, 1), (2, 0))
    v = is_normalized(pair, state)
    assert not v.normalized and (v.component, v.witness) == ("i", pos)


def test_f5_criterion_runs_at_pop_without_creation_checks(golden_gens):
    state, _ = incremental_basis(golden_gens, opts=EngineOptions(check_on_creation=False))
    stages = {ev.stage for ev in rejection_events(state) if ev.kind == "f5crit"}
    assert stages == {"pop"}


def test_no_pop_stage_f5_rejections_on_corpus(corpus_runs):
    for run in corpus_runs:
        assert not [
            ev for ev in rejection_events(run["state"])
            if ev.kind == "f5crit" and ev.stage == "pop"
        ], run["name"]


def test_is_rewritable_empty_rule_table(golden_gens):
    state, _ = incremental_basis(golden_gens[:1])
    # a self-pair style probe: only the input's own rule exists
    pair = _pair(state, 1, 1, (0, 0, 0, 0), (0, 0, 0, 0))
    assert not is_rewritable(pair, state).rewritable


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

SIGNED_FIELDS = (PrimeField(7), QQ)


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
        found = _find_reductor(r.poly.ht, r.sig, state)
        if found is None:
            return TRResult("reduced", ref_monicize(r))
        u, pos, elt, cm = found
        if cm is Cmp.LT:
            c = ring.field.div(r.poly.hc, elt.poly.hc)
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
    return Polynomial(ring, tuple(t for t in p.terms if sum(t[0]) <= deg))


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
        seen.add((field.is_prime, r.witness is not None, monic, out.kind, min(steps, 2)))
    for prime in (True, False):
        for certified in (True, False):
            # a split after a step returns the rescaled working element; a
            # zero after two steps rescales its witness, after one it does not
            for kind, steps in (("reduced", 0), ("reduced", 2), ("split", 0), ("split", 1),
                                ("zero", 1), ("zero", 2)):
                assert (prime, certified, False, kind, steps) in seen


# -- interreduce -----------------------------------------------------------------------

def test_interreduce_examples(golden_state, golden_expected):
    ring = PolyRing(("x", "y"))
    assert interreduce([ring.parse("x"), ring.parse("x + y")]) == [
        ring.parse("y"),
        ring.parse("x"),
    ]
    assert interreduce([ring.parse("x^2")]) == [ring.parse("x^2")]
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


def test_criteria_knobs_preserve_correctness(golden_gens, golden_expected):
    # disabling either check point changes work done, never the ideal
    for co, rp in ((False, True), (True, False), (False, False)):
        opts = EngineOptions(check_on_creation=co, recheck_on_pop=rp)
        state, _ = incremental_basis(golden_gens, opts=opts)
        assert interreduce(state) == golden_expected


def test_order_argument_must_match_ring(golden_gens):
    from siggb.polyring import MonomialOrder, StructureError

    ring = golden_gens[0].ring
    state, _ = incremental_basis(golden_gens, order=ring.order)
    assert state.size == 10
    with pytest.raises(StructureError):
        incremental_basis(golden_gens, order=MonomialOrder("lex"))


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
    from siggb.f5engine import SignatureCollision, _make_pair

    ring = PolyRing(("x", "y"))
    state = BasisState(ring, 1)
    state.append_input(LabeledPoly(Signature((0, 0), 1), ring.parse("x^2 + y^2")))
    state.current_index = 1
    for gamma, poly in (((1, 0), "x*y"), ((0, 1), "y^2")):
        rule = state.add_rule(gamma, 1)
        state.add_element(LabeledPoly(Signature(gamma, 1), ring.parse(poly)), rule)
    state._heap = []
    _make_pair(state, 2, 3)
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
