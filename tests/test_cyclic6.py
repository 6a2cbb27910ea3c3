"""Cyclic-6 over GF(32003), pinned by digest.

The run is the largest the engine is asked to make (about 1.2 M pairs and
1,557 elements).  Three digests pin it: the stats lines, the rendered trace
and the relaxed-criterion scan (``scan_run``'s report lines, then one line
per pair scan).  The scan must also report zero clause-(b) firings and the
lemma holding: the paper's result on the largest run.

The test took 50 s of CPU time with a peak resident size of 618 MB on a
shared 2-core machine (Python 3.11.7, two runs).  The engine alone took
19 s in the median of three runs (``f5.cyclic6_s`` in ``scripts/bench.py``
times the same), with a peak of 421 MB.  So it is marked ``slow`` and
left out of the default run:

    PYTHONPATH=src python -m pytest -m slow tests/test_cyclic6.py

Print the digests of the current code with

    PYTHONPATH=src python tests/test_cyclic6.py
"""

import hashlib
from itertools import chain

import pytest

from siggb import incremental_basis
from siggb.corpus import cyclic
from siggb.falsifier import scan_run

# sha256 of the stats lines, of the rendered trace and of the scan, one line each
STATS_DIGEST = "b56726640a2dffc1f5a5550bfe1074ccecae9aead4bcd441dd3a365b3b1fada9"
TRACE_DIGEST = "d57da1d969908cc5a49f319f617af1846b15213ecde559e798d1cdf1d21b6180"
SCAN_DIGEST = "597e7bf28387c8d401996d80a09bba6741ac94415af5fa16d5073ae97e13cf7c"


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def cyclic6_run():
    """The digests of one cyclic-6 run, then its scan report."""
    state, events = incremental_basis(cyclic(6))
    report = scan_run(state)
    scan = chain(report.lines(state), (
        f"({s.pair.i},{s.pair.j}) {s.normalized} {s.completely} {s.part_b}"
        for s in report.pair_scans
    ))
    digests = (
        _sha256(state.stats.lines()),
        _sha256(ev.render(state) for ev in events),
        _sha256(scan),
    )
    return digests, report


@pytest.mark.slow
def test_cyclic6_stats_trace_and_scan_digests():
    digests, report = cyclic6_run()
    assert report.part_b_firings == 0
    assert report.lemma_holds
    assert digests == (STATS_DIGEST, TRACE_DIGEST, SCAN_DIGEST)


if __name__ == "__main__":
    print("\n".join(cyclic6_run()[0]))
