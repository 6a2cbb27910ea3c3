"""Cyclic-6 over GF(32003), pinned by digest.

The run is the largest the engine is asked to make (about 1.2 M pairs and
1,557 elements).  The test takes 3 to 4 minutes with a peak resident size
of 531 MB on a shared 2-core machine under load (52 s when it was timed
on a quieter one), a fifth of it the engine run and most of the rest
rendering its 2.4 M events, so it is marked ``slow`` and left out of the
default run:

    PYTHONPATH=src python -m pytest -m slow tests/test_cyclic6.py

Print the digests of the current code with

    PYTHONPATH=src python tests/test_cyclic6.py
"""

import hashlib

import pytest

from siggb import incremental_basis
from siggb.corpus import cyclic

# sha256 of the stats lines, then of the rendered trace, one line each
STATS_DIGEST = "b56726640a2dffc1f5a5550bfe1074ccecae9aead4bcd441dd3a365b3b1fada9"
TRACE_DIGEST = "d57da1d969908cc5a49f319f617af1846b15213ecde559e798d1cdf1d21b6180"


def cyclic6_digests() -> tuple[str, str]:
    state, events = incremental_basis(cyclic(6))
    stats = hashlib.sha256()
    for line in state.stats.lines():
        stats.update(line.encode() + b"\n")
    trace = hashlib.sha256()
    for ev in events:
        trace.update(ev.render(state).encode() + b"\n")
    return stats.hexdigest(), trace.hexdigest()


@pytest.mark.slow
def test_cyclic6_stats_and_trace_digests():
    assert cyclic6_digests() == (STATS_DIGEST, TRACE_DIGEST)


if __name__ == "__main__":
    print("\n".join(cyclic6_digests()))
