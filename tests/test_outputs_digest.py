"""Output-digest regression: everything a run computes, pinned by sha256.

For each system below, the lines hashed are the signature engine's trace,
elements, stats, reduced basis, improved-criterion scan and (when certified)
certificates, then the Buchberger oracle's reduced basis and stats.
``tests/data/outputs.sha256`` holds one ``<sha256>  <system>`` line per
system.  A change that is meant to alter outputs rewrites it with

    PYTHONPATH=src python tests/test_outputs_digest.py
"""

import hashlib
import os

from siggb import EngineOptions, buchberger_basis, incremental_basis, interreduce
from siggb.baseline import BaselineStats
from siggb.corpus import corpus_shapes, cyclic, katsura, random_ideal
from siggb.f5engine import certify_all
from siggb.falsifier import scan_run

DIGEST_FILE = os.path.join(os.path.dirname(__file__), "data", "outputs.sha256")


def systems():
    """(name, generators, certify) for every pinned system."""
    yield "cyclic-4", cyclic(4), True
    yield "katsura-4/QQ", katsura(4, p=None), True
    yield "katsura-5", katsura(5), False
    for k, d, n, seed in corpus_shapes(30):
        yield f"random(k={k},d={d},n={n},seed={seed})", random_ideal(k, d, n, seed), False
    # the benchmark's two GF(32003) systems; katsura-6 makes 21 splits
    yield "cyclic-5", cyclic(5), False
    yield "katsura-6", katsura(6), False
    # certified over ℚ; katsura-5 gives the product kernel large common
    # denominators (533 certificates)
    yield "cyclic-4/QQ", cyclic(4, p=None), True
    yield "katsura-5/QQ", katsura(5, p=None), True


def output_lines(gens, certify):
    opts = EngineOptions(certify=certify, validate_witnesses=certify)
    state, events = incremental_basis(gens, opts=opts)
    ring = state.ring
    yield from (ev.render(state) for ev in events)
    for elt in state.elements:
        yield f"element {elt.sig.render(ring)} {elt.poly}"
    yield from state.stats.lines()
    yield from (f"f5 {p}" for p in interreduce(state))
    report = scan_run(state)
    yield from report.lines(state)
    for s in report.pair_scans:
        yield f"scan ({s.pair.i},{s.pair.j}) {s.normalized} {s.completely} {s.part_b}"
    if certify:
        yield from (cert.render(state) for cert in certify_all(state))
    gm_stats = BaselineStats()
    yield from (f"gm {p}" for p in buchberger_basis(gens, stats=gm_stats))
    yield from gm_stats.lines()


def digests() -> dict[str, str]:
    out = {}
    for name, gens, certify in systems():
        h = hashlib.sha256()
        for line in output_lines(gens, certify):
            h.update(line.encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def read_digest_file() -> dict[str, str]:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return {name: digest for digest, name in (line.rstrip("\n").split("  ", 1) for line in fh)}


def test_outputs_match_pinned_digests():
    assert digests() == read_digest_file()


if __name__ == "__main__":
    lines = [f"{digest}  {name}\n" for name, digest in digests().items()]
    with open(DIGEST_FILE, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
