"""Independent Buchberger engine with Gebauer-Moeller pair elimination.

Used as the correctness oracle for the signature engine.  Shares only the
plain polynomial arithmetic; no signature machinery is involved, so a bug in
the signature logic cannot mask itself here.

The basis only grows, so the S-polynomials reduce against one
``polyring.Reducers`` appended alongside it, whose memo of each monomial's
first reducer carries over from one reduction to the next; ``spol`` and
``reduce_full`` are still called by name for every pair.  A pair's lcm is
a packed monomial, made once from the heads' packed variable fields
(``lcm_cofactors``), so the Gebauer-Moeller tests are int compares and
guard-bit divisibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from .polyring import (
    Polynomial,
    Reducers,
    check_generators,
    lcm_cofactors,
    minimal_basis,
    reduce_full,
    reduced_basis,
    spol,
)


@dataclass
class PairQueue:
    """Pending S-pairs plus a log of pairs removed by a criterion.

    ``heap`` holds one entry (degree, packed lcm, (i, j)) per pair ever
    added, and ``pop`` returns the pending pair of the smallest entry: the
    one that taking the minimum over every pending pair would select.  A
    discarded pair leaves only ``pending``; its heap entry is skipped when
    it comes up.
    """

    pending: dict = field(default_factory=dict)  # (i, j) -> packed lcm
    removed: list = field(default_factory=list)  # ((i, j), criterion)
    heap: list = field(default_factory=list, repr=False)

    def add(self, key, lcm: int, ring):
        self.pending[key] = lcm
        heappush(self.heap, (sum(ring.unpack_vars(lcm & ring._varmask)), lcm, key))

    def pop(self):
        """The next pending pair (i, j), removed from the queue."""
        while True:
            key = heappop(self.heap)[2]
            if key in self.pending:
                del self.pending[key]
                return key

    def discard(self, key, criterion: str):
        if key in self.pending:
            del self.pending[key]
            self.removed.append((key, criterion))


@dataclass
class BaselineStats:
    pairs_created: int = 0
    rejected_product: int = 0
    rejected_chain: int = 0
    reductions_to_zero: int = 0
    elements_added: int = 0

    def lines(self) -> list[str]:
        return [
            f"pairs created: {self.pairs_created}",
            f"rejected product-criterion: {self.rejected_product}",
            f"rejected chain-criterion: {self.rejected_chain}",
            f"reductions to zero: {self.reductions_to_zero}",
            f"elements added: {self.elements_added}",
        ]


def _update(G, queue: PairQueue, f: Polynomial, stats: BaselineStats, strategy: str):
    """Add f to the basis, building new pairs under the chosen elimination.

    The lcm of a new pair (i, f) is f's packed head plus the packed
    cofactor lcm/HT(f), which ``lcm_cofactors`` gives as variable fields."""
    ring = f.ring
    t = len(G)
    varmask, guard, hf = ring._varmask, ring._guard, f.packed[0][0]
    new_lcms = [hf + ring.pack(ring.unpack_vars(lcm_cofactors(
        g.packed[0][0] & varmask, hf & varmask, ring._varguard)[1])) for g in G]
    stats.pairs_created += t

    if strategy == "none":
        for i in range(t):
            queue.add((i, t), new_lcms[i], ring)
        G.append(f)
        return

    # chain criterion on old pairs: drop (i, j) when HT(f) divides its lcm
    # strictly (the two pairs with f survive)
    for key in list(queue.pending):
        i, j = key
        l = queue.pending[key]
        if not (l - hf) & guard and l != new_lcms[i] and l != new_lcms[j]:
            queue.discard(key, "chain")
            stats.rejected_chain += 1

    # group the new pairs by lcm and keep only minimal lcms, one pair each
    by_lcm: dict[int, list[int]] = {}
    for i in range(t):
        by_lcm.setdefault(new_lcms[i], []).append(i)
    minimal: list[int] = []
    for l in sorted(by_lcm):
        if any(not (l - l2) & guard for l2 in minimal):
            stats.rejected_chain += len(by_lcm[l])
            continue
        minimal.append(l)
    for l in minimal:
        members = by_lcm[l]
        coprime = any(G[i].packed[0][0] + hf == l for i in members)
        if coprime:
            stats.rejected_product += 1
            stats.rejected_chain += len(members) - 1
            continue
        queue.add((min(members), t), l, ring)
        stats.rejected_chain += len(members) - 1
    G.append(f)


def buchberger_basis(
    F: Sequence[Polynomial],
    stats: BaselineStats | None = None,
    strategy: str = "gebauermoeller",
    queue: PairQueue | None = None,
) -> list[Polynomial]:
    """Reduced monic Groebner basis of <F> via Buchberger's algorithm.

    Pairs are selected by the degree and the packed monomial (the ring's
    order key) of the lcm, then by (i, j), from ``PairQueue``'s heap;
    elimination is Gebauer-Moeller by default, or "none" for the
    differential test.  Each S-polynomial is reduced against
    one ``Reducers`` kept beside G, so a monomial met in an earlier
    reduction finds its first reducer in the memo, and only the elements
    added since are scanned.
    """
    F, ring = check_generators(F)
    stats = stats if stats is not None else BaselineStats()
    queue = queue if queue is not None else PairQueue()
    G: list[Polynomial] = []
    reducers = Reducers(ring)  # G's reducers, appended alongside
    for f in F:
        _update(G, queue, f.monic(), stats, strategy)
        reducers.append(G[-1])
        stats.elements_added += 1
    while queue.pending:
        i, j = queue.pop()
        _, _, s = spol(G[i], G[j])
        r = reduce_full(s, reducers)
        if r.is_zero:
            stats.reductions_to_zero += 1
        else:
            _update(G, queue, r.monic(), stats, strategy)
            reducers.append(G[-1])
            stats.elements_added += 1
    return reduced_basis(minimal_basis(G))


def ideal_equal(A: Sequence[Polynomial], B: Sequence[Polynomial]) -> bool:
    """True iff the interreduced monic forms of A and B coincide as sets."""
    ra = reduced_basis(A)
    rb = reduced_basis(B)
    return {p.packed for p in ra} == {p.packed for p in rb}
