from siggb.baseline import BaselineStats, PairQueue, buchberger_basis, ideal_equal
from siggb.corpus import cyclic, katsura, random_ideal
import pytest

from siggb.polyring import DomainError, PolyRing, top_reduce, spol


def test_golden_basis(golden_gens, golden_expected):
    assert buchberger_basis(golden_gens) == golden_expected


def test_small_known_bases():
    ring = PolyRing(("x", "y"))
    F = [ring.parse("x^2"), ring.parse("x*y")]
    assert buchberger_basis(F) == [ring.parse("x*y"), ring.parse("x^2")]
    assert buchberger_basis([ring.parse("x")]) == [ring.parse("x")]


def test_ideal_equal_examples(golden_gens):
    ring = PolyRing(("x", "y"))
    assert ideal_equal([ring.parse("x")], [ring.parse("2x")])
    assert not ideal_equal([ring.parse("x")], [ring.parse("y")])


def test_buchberger_criterion_on_output():
    # every S-polynomial of the final basis top-reduces to zero
    for seed in (11, 12, 13):
        gens = random_ideal(3, 3, 3, seed)
        G = buchberger_basis(gens)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                _, _, s = spol(G[i], G[j])
                assert top_reduce(s, G).is_zero


def test_gebauer_moeller_matches_plain_buchberger(golden_gens):
    # the criteria change the pair count, never the reduced basis
    for seed in (21, 22, 23, 24):
        gens = random_ideal(2, 2, 3, seed)
        with_gm = buchberger_basis(gens, strategy="gebauermoeller")
        plain = buchberger_basis(gens, strategy="none")
        assert with_gm == plain
    assert buchberger_basis(golden_gens, strategy="none") == buchberger_basis(golden_gens)


def test_pair_queue_logs_removals(golden_gens):
    stats = BaselineStats()
    queue = PairQueue()
    buchberger_basis(golden_gens, stats=stats, queue=queue)
    assert stats.pairs_created > 0
    assert not queue.pending
    assert all(crit in ("chain", "product") for _, crit in queue.removed)


def test_stats_block(golden_gens):
    stats = BaselineStats()
    buchberger_basis(golden_gens, stats=stats)
    lines = stats.lines()
    assert any(line.startswith("pairs created:") for line in lines)
    assert any(line.startswith("reductions to zero:") for line in lines)


class MinCheckedQueue(PairQueue):
    """A PairQueue whose every pop is checked against the minimum over the
    pending pairs by (degree, order key, (i, j)) of the lcm, which the
    queue holds packed: its order key."""

    def __init__(self, ring):
        super().__init__()
        self.ring = ring
        self.popped = []

    def pop(self):
        pending, unpack = self.pending, self.ring.unpack
        want = min(pending, key=lambda k: (sum(unpack(pending[k])), pending[k], k))
        got = super().pop()
        assert got == want
        self.popped.append(got)
        return got


def test_pair_queue_pops_in_min_order(golden_gens):
    systems = [golden_gens, cyclic(4), katsura(4), random_ideal(3, 3, 3, 11)]
    discarded = 0
    for gens in systems:
        for strategy in ("none", "gebauermoeller"):
            queue = MinCheckedQueue(gens[0].ring)
            buchberger_basis(gens, strategy=strategy, queue=queue)
            assert queue.popped and not queue.pending
            # no pair is popped twice, or both popped and discarded
            removed = [key for key, _ in queue.removed]
            assert len(set(queue.popped)) == len(queue.popped)
            assert not set(removed) & set(queue.popped)
            if strategy == "none":
                assert not removed
            discarded += len(removed)
    # the chain criterion discards a queued pair (on katsura-4), whose heap
    # entry is then skipped
    assert discarded


def test_pair_lcms_past_the_packed_field():
    # a pair's lcm is made from the heads' packed variable fields, never
    # packed from a tuple: the product criterion discards a coprime pair
    # whose lcm's degree leaves its packed field, and a pair it keeps
    # raises DomainError at its S-polynomial
    ring = PolyRing(("x", "y"))
    P = ring.parse
    big = 2**31 - 2
    assert buchberger_basis([P(f"x^{big}"), P("y^3 + x")]) == [P("y^3 + x"), P(f"x^{big}")]
    with pytest.raises(DomainError):
        buchberger_basis([P(f"x^{2**30}*y + 1"), P(f"x*y^{2**30} + 1")])
