import pytest

from siggb.corpus import cyclic, katsura
from siggb.f5engine import (
    EngineOptions,
    PairCreated,
    PairRejected,
    incremental_basis,
    is_normalized,
)
from siggb.falsifier import (
    ElementRow,
    ImprovedCheckReport,
    PairScan,
    _component_part_b,
    completely_normalized,
    scan_run,
)
from siggb.polyring import Cmp, PolyRing, compare, exp_div, exp_mul


def test_golden_scan(golden_state):
    report = scan_run(golden_state)
    assert report.lemma_holds
    assert report.part_b_firings == 0
    by_pos = {r.pos: r for r in report.rows}
    # inputs: equality; derived elements: strict inequality
    for pos in (1, 2, 3):
        assert by_pos[pos].relation is Cmp.EQ
    for pos in range(4, golden_state.size + 1):
        assert by_pos[pos].relation is Cmp.GT
    assert len(report.pair_scans) == golden_state.stats.pairs_created


def test_equivalence_on_every_pair(golden_state):
    for pair in golden_state.events:
        if not isinstance(pair, PairCreated):
            continue
        nv = is_normalized(pair, golden_state)
        cn = completely_normalized(pair, golden_state, pair.snapshot)
        assert nv.normalized == cn.completely_normalized
        if not cn.completely_normalized:
            assert cn.via == "a"


def test_not_normalized_pair_reports_clause_a(golden_state):
    rejected = next(
        pair
        for pair in golden_state.events
        if isinstance(pair, PairCreated)
        and not is_normalized(pair, golden_state).normalized
    )
    cn = completely_normalized(rejected, golden_state, rejected.snapshot)
    assert not cn.completely_normalized and cn.via == "a"


def test_input_generators_cannot_fire_clause_b(golden_state):
    # for an input element the inequality HT(f) * 1 < HT(f) is false, so no
    # pair can ever be flagged through an input witness
    from siggb.falsifier import _component_part_b
    from siggb.signature import Signature

    for pos in (1, 2, 3):
        assert _component_part_b(Signature((1, 1, 1, 1), pos), golden_state) is None


def test_report_lines(golden_state):
    report = scan_run(golden_state)
    lines = report.lines(golden_state)
    assert lines[0] == "improved-criterion part(b) firings: 0"
    assert any("HT(f1)" in line for line in lines)


def test_scan_on_nonregular_input():
    from siggb.corpus import cyclic

    state, _ = incremental_basis(cyclic(4))
    report = scan_run(state)
    assert report.lemma_holds
    assert report.part_b_firings == 0


def _scan_lines(report, state):
    return report.lines(state) + [
        f"({s.pair.i},{s.pair.j}) {s.normalized} {s.completely} {s.part_b}"
        for s in report.pair_scans
    ]


@pytest.fixture(scope="module")
def small_runs(golden_gens):
    opts = EngineOptions(certify=True, validate_witnesses=True)
    return [incremental_basis(gens, opts=o)[0] for gens, o in (
        (golden_gens, None), (cyclic(4), None), (katsura(4), None),
        (katsura(4, p=None), opts),
    )]


@pytest.fixture(scope="module")
def scan_states(small_runs):
    return small_runs + [incremental_basis(cyclic(5))[0]]


def test_creation_rejection_follows_its_pair(scan_states):
    # a trace shows each pair's creation-time fate right after the pair, so
    # every creation-stage rejection must be the event after its pair
    for state in scan_states:
        events = state.events
        seen = 0
        for n, ev in enumerate(events):
            if isinstance(ev, PairRejected) and ev.stage == "creation":
                assert events[n - 1] is ev.pair
                seen += ev.kind == "f5crit"
        assert seen == state.stats.rejected_not_normalized


def test_scan_verdict_matches_the_criterion(scan_states):
    # the recorded verdict against the F5 criterion asked afresh
    for state in scan_states:
        scans = scan_run(state).pair_scans
        pairs = [ev for ev in state.events if isinstance(ev, PairCreated)]
        assert [s.pair for s in scans] == pairs
        assert not all(s.normalized for s in scans)
        for s in scans:
            assert s.normalized == is_normalized(s.pair, state).normalized
            assert s.completely == s.normalized and not s.part_b


def test_scan_asks_the_criterion_only_for_a_lt_row(scan_states, monkeypatch):
    # with no row reading "<" the scan makes no completely_normalized call;
    # with an inequality that always holds it asks once per pair
    calls = []

    def counted(*args):
        calls.append(args[0])
        return completely_normalized(*args)

    monkeypatch.setattr("siggb.falsifier.completely_normalized", counted)
    for state in scan_states:
        report = scan_run(state)
        assert all(r.relation is not Cmp.LT for r in report.rows)
        assert calls == []
        with monkeypatch.context() as patched:
            patched.setattr("siggb.falsifier.compare", lambda a, b, order: Cmp.LT)
            report = scan_run(state)
        assert calls == [s.pair for s in report.pair_scans]
        calls.clear()


def test_scan_without_the_engines_memo(golden_gens):
    # the scan reads the verdicts the pairs' component records keep, not
    # the F5 tables' memo, so emptying the tables changes nothing in the
    # report and asks nothing again
    for gens in (golden_gens, cyclic(4), katsura(4), cyclic(5)):
        state, _ = incremental_basis(gens)
        assert state.f5_tables
        warm = _scan_lines(scan_run(state), state)
        state.f5_tables.clear()
        assert _scan_lines(scan_run(state), state) == warm
        assert not state.f5_tables


def _part_b_over_active_positions(u, pos, state, snapshot, cmp=compare):
    """Clause (b) as it was first written: every position up to the
    snapshot is walked, and those of another index are skipped."""
    elt = state.element(pos)
    k0 = elt.sig.index
    t = exp_mul(u, elt.sig.gamma)
    ht_f = state.poly(k0).ht
    for prev in range(1, (state.size if snapshot is None else snapshot) + 1):
        pe = state.elements[prev - 1]
        if pe.sig.index != k0 or exp_div(t, pe.poly.ht) is None:
            continue
        if cmp(exp_mul(ht_f, pe.sig.gamma), pe.poly.ht, state.ring.order) is Cmp.LT:
            return prev
    return None


@pytest.mark.parametrize("fires", [False, True])
def test_part_b_equal_index_walk_matches_active_walk(small_runs, monkeypatch, fires):
    # clause (b) never fires, so the walks are also compared with an
    # inequality that always holds: both then return the first
    # equal-index divisor of the term
    cmp = compare
    if fires:
        cmp = lambda a, b, order: Cmp.LT
        monkeypatch.setattr("siggb.falsifier.compare", cmp)
    found = 0
    for state in small_runs:
        pairs = [ev for ev in state.events if isinstance(ev, PairCreated)]
        assert pairs
        for pair in pairs:
            for comp in ("i", "j"):
                u, pos = pair.component(comp)
                for snap in (pair.snapshot, None):
                    prev = _component_part_b(pair.msig(comp), state, snap)
                    assert prev == _part_b_over_active_positions(u, pos, state, snap, cmp)
                    found += prev is not None
    assert bool(found) == fires


def _reference_scan(state, cmp):
    """scan_run as first written: each element's row from cmp, and clause (b)
    by ``_part_b_over_active_positions`` for every component."""
    report = ImprovedCheckReport()
    for pos in range(1, state.size + 1):
        elt = state.element(pos)
        k0 = elt.sig.index
        rel = cmp(exp_mul(state.poly(k0).ht, elt.sig.gamma), elt.poly.ht, state.ring.order)
        expected = Cmp.EQ if pos <= state.m else Cmp.GT
        report.rows.append(ElementRow(pos, k0, elt.sig.gamma, rel, expected))
    for pair in state.events:
        if not isinstance(pair, PairCreated):
            continue
        via = None if is_normalized(pair, state).normalized else "a"
        if via is None and any(
            _part_b_over_active_positions(*pair.component(comp), state, pair.snapshot, cmp)
            is not None
            for comp in ("i", "j")
        ):
            via = "b"
        report.part_b_firings += via == "b"
        report.pair_scans.append(PairScan(pair, via != "a", via is None, via == "b"))
    return report


def test_scan_matches_reference_scan(scan_states, monkeypatch):
    # clause (b) walks only the elements whose row reads "<"; the reference
    # walks every position.  With the real order no row reads "<"; with an
    # inequality that always holds every row does and clause (b) fires.  The
    # real scan runs first, so lists kept from it would fail the second.
    always = lambda a, b, order: Cmp.LT
    for state in scan_states:
        report = scan_run(state)
        assert report.part_b_firings == 0
        assert _scan_lines(report, state) == _scan_lines(_reference_scan(state, compare), state)
        with monkeypatch.context() as patched:
            patched.setattr("siggb.falsifier.compare", always)
            report = scan_run(state)
        assert report.part_b_firings > 0
        assert _scan_lines(report, state) == _scan_lines(_reference_scan(state, always), state)
