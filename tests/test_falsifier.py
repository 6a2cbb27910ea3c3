import pytest

from siggb.corpus import cyclic, katsura
from siggb.f5engine import EngineOptions, PairCreated, incremental_basis, is_normalized
from siggb.falsifier import _component_part_b, completely_normalized, scan_run
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
    for ev in golden_state.events:
        if not isinstance(ev, PairCreated):
            continue
        snap = ev.pair.snapshot
        nv = is_normalized(ev.pair, golden_state, snap)
        cn = completely_normalized(ev.pair, golden_state, snap)
        assert nv.normalized == cn.completely_normalized
        if not cn.completely_normalized:
            assert cn.via == "a"


def test_not_normalized_pair_reports_clause_a(golden_state):
    rejected = next(
        ev
        for ev in golden_state.events
        if isinstance(ev, PairCreated)
        and not is_normalized(ev.pair, golden_state, ev.pair.snapshot).normalized
    )
    cn = completely_normalized(rejected.pair, golden_state, rejected.pair.snapshot)
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


def test_scan_without_the_engines_memo(golden_gens):
    # scan_run answers from the F5 memo the engine filled; emptied, the memo
    # is refilled from the basis alone and gives the same report
    for gens in (golden_gens, cyclic(4), katsura(4), cyclic(5)):
        state, _ = incremental_basis(gens)
        assert state.f5_tables
        warm = _scan_lines(scan_run(state), state)
        state.f5_tables.clear()
        assert _scan_lines(scan_run(state), state) == warm


def _part_b_over_active_positions(u, pos, state, snapshot, cmp=compare):
    """Clause (b) as it was first written: every active position is walked,
    and those of another index are skipped."""
    elt = state.element(pos)
    k0 = elt.sig.index
    t = exp_mul(u, elt.sig.gamma)
    ht_f = state.poly(k0).ht
    for prev in state.active_positions(snapshot):
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
        pairs = [ev.pair for ev in state.events if isinstance(ev, PairCreated)]
        assert pairs
        for pair in pairs:
            for comp in ("i", "j"):
                u, pos = pair.component(comp)
                for snap in (pair.snapshot, None):
                    prev = _component_part_b(pair.msig(comp), state, snap)
                    assert prev == _part_b_over_active_positions(u, pos, state, snap, cmp)
                    found += prev is not None
    assert bool(found) == fires
