#!/usr/bin/env python3
"""Corpus experiment: run both engines over seeded random ideals plus
cyclic-4 and katsura-4, compare the reduced bases, check every rejected
pair, and shadow-scan the relaxed criterion.

Usage: python3 scripts/run_corpus.py [--count N] [--seed S] [--certify]
"""

import argparse
import sys
import time

from siggb.baseline import buchberger_basis, ideal_equal
from siggb.f5engine import (
    EngineOptions,
    certify_all,
    incremental_basis,
    interreduce,
    rejection_events,
)
from siggb.falsifier import scan_run
from siggb.corpus import corpus_shapes, cyclic, katsura, random_ideal
from siggb.polyring import spol, top_reduce


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--certify", action="store_true")
    args = ap.parse_args()

    systems = [
        (f"random(k={k},d={d},n={n},seed={s})", random_ideal(k, d, n, s))
        for k, d, n, s in corpus_shapes(args.count, args.seed)
    ]
    systems += [("cyclic-4", cyclic(4)), ("katsura-4", katsura(4))]

    opts = EngineOptions(certify=args.certify, validate_witnesses=args.certify)
    mismatches = unsound = part_b = 0
    totals = {"pairs": 0, "f5crit": 0, "rewrite": 0, "zeros": 0, "splits": 0}
    t0 = time.time()
    for name, gens in systems:
        state, _ = incremental_basis(gens, opts=opts)
        f5 = interreduce(state)
        gm = buchberger_basis(gens)
        if not ideal_equal(f5, gm):
            mismatches += 1
            print(f"MISMATCH {name}", file=sys.stderr)
        basis = state.polys()
        for ev in rejection_events(state):
            _, _, s = spol(state.poly(ev.pair.i), state.poly(ev.pair.j))
            if not top_reduce(s, basis).is_zero:
                unsound += 1
                print(f"UNSOUND rejection in {name}: pair ({ev.pair.i},{ev.pair.j})",
                      file=sys.stderr)
        report = scan_run(state)
        part_b += report.part_b_firings
        if args.certify:
            certs = certify_all(state)
            assert all(c.valid for c in certs)
        st = state.stats
        totals["pairs"] += st.pairs_created
        totals["f5crit"] += st.rejected_not_normalized
        totals["rewrite"] += st.rejected_rewritable
        totals["zeros"] += st.reductions_to_zero
        totals["splits"] += st.splits

    print(f"systems: {len(systems)}")
    print(f"elapsed: {time.time() - t0:.1f}s")
    for key, value in totals.items():
        print(f"{key}: {value}")
    print(f"oracle mismatches: {mismatches}")
    print(f"unsound rejections: {unsound}")
    print(f"improved-criterion part(b) firings: {part_b}")
    return 1 if (mismatches or unsound or part_b) else 0


if __name__ == "__main__":
    sys.exit(main())
