"""Runs one workload of the benchmark in a fresh single-threaded process.

    python3 perfbench/worker.py setup WORKLOAD PRIME
    python3 perfbench/worker.py run WORKLOAD PRIME SECONDS TRACE OUT

``setup`` prints the seconds it took to import siggb and build or parse the
workload's inputs.  ``run`` does the same, then runs whole rounds until
SECONDS have passed.  A round builds the inputs afresh, so that no cache of a
ring outlives it, and runs every system of the workload: the signature engine
and interreduction, ``certify_all`` for a certified system, the Buchberger
oracle and ``scan_run``.  With TRACE 1 the rounds alternate between untraced
and traced, and the run ends on a traced round.

OUT receives JSON lines: the set-up time, one record per round with the
phase times, counters and a digest of each system's outputs, the full outputs
of the first round (raw lines between ``payload`` and ``payload_end``
markers, whose sha256 is the digest), and the process's peak resident
memory.  Each system's outputs are written and dropped before the next
system runs.  The worker checks nothing; ``run.py`` does.  It imports only
the standard library before siggb, and never imports sympy, so that its
memory is siggb's.
"""

import os
import sys
import time

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def setup(systems):
    t0 = time.perf_counter()
    import siggb.cli
    import siggb.corpus

    inputs = [workloads.build(s, siggb.cli, siggb.corpus) for s in systems]
    return time.perf_counter() - t0, inputs


def _terms(poly):
    return [[e, str(c)] for e, c in poly.terms]


# exp_divides calls made by f5engine code; run_system keeps those made while
# the engine runs, so that the scan's re-evaluation of the criterion is left out
ENGINE_TESTS = "polyring.exp_divides.f5engine"


class Outcome:
    def __init__(self, system):
        self.system = system
        self.times: dict = {}
        self.engine_tests = 0
        self.state = self.basis = self.oracle = self.report = None
        self.certs: list = []
        self.gm_stats = None
        self.error = None

    def lines(self):
        """The outputs to check, as JSON-ready objects: a head, then the
        basis elements and certificates of a certified system."""
        import siggb.f5engine as f5

        if self.error is not None:
            yield {"error": self.error}
            return
        state = self.state
        events = f5.rejection_events(state)
        created = sum(isinstance(ev, f5.PairCreated) for ev in state.events)
        yield {
            "basis": [_terms(p) for p in self.basis],
            "oracle": [_terms(p) for p in self.oracle],
            "stats": vars(state.stats),
            "gm_stats": vars(self.gm_stats),
            "scan": {"part_b": self.report.part_b_firings, "agree": self.report.lemma_holds,
                     "scanned": len(self.report.pair_scans), "pairs": created},
            "rejections": len(events),
            "certificates": len(self.certs),
        }
        if not self.system.certify:
            return
        for elt in state.elements:
            yield {"element": [elt.sig.gamma, elt.sig.index, _terms(elt.poly)]}
        for ev, cert in zip(events, self.certs):
            if ev.kind == "f5crit":
                crit = ev.witnesses[0][1]
            else:
                crit = ev.rule.label if isinstance(ev.rule.label, int) else None
            yield {"cert": {
                "pair": [ev.pair.i, ev.pair.j], "kind": cert.kind,
                "flagged": cert.flagged_pos, "u": cert.flagged_u, "crit": crit,
                "bound": [cert.bound_sig.gamma, cert.bound_sig.index],
                "vector": [[pos, _terms(cert.vector.entries[pos])]
                           for pos in cert.vector.positions()],
            }}


def run_system(system, gens, tracer=None) -> Outcome:
    import siggb

    out = Outcome(system)
    clock = time.perf_counter
    opts = siggb.EngineOptions(certify=system.certify, validate_witnesses=system.certify)
    try:
        t0 = clock()
        before = tracer.count(ENGINE_TESTS) if tracer else 0
        out.state, _ = siggb.incremental_basis(gens, opts=opts)
        if tracer:
            out.engine_tests = tracer.count(ENGINE_TESTS) - before
        out.basis = siggb.interreduce(out.state)
        t1 = clock()
        out.times["basis_s"] = t1 - t0
        if system.certify:
            out.certs = siggb.certify_all(out.state)
            t2 = clock()
            out.times["certify_s"] = t2 - t1
            t1 = t2
        out.gm_stats = siggb.baseline.BaselineStats()
        out.oracle = siggb.buchberger_basis(gens, stats=out.gm_stats)
        t2 = clock()
        out.times["oracle_s"] = t2 - t1
        out.report = siggb.scan_run(out.state)
        out.times["scan_s"] = clock() - t2
    except Exception:  # a failed system is counted, and the run goes on
        import traceback

        out.error = traceback.format_exc()
    return out


def layer_metrics(summary, records) -> dict:
    """Per-layer figures of one traced round, summed over its systems."""
    calls, incl, self_s, counts = summary

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(incl.get(n, 0.0) for n in names)

    stats = {}
    gm = {}
    engine_tests = sum(rec["engine_tests"] for rec in records)
    for rec in records:
        if not rec["error"]:
            for k, v in rec["stats"].items():
                stats[k] = stats.get(k, 0) + v
            for k, v in rec["gm_stats"].items():
                gm[k] = gm.get(k, 0) + v
    pairs = stats.get("pairs_created", 0)
    added, zeros = stats.get("elements_added", 0), stats.get("reductions_to_zero", 0)
    return {
        "polyring.sub_mul.calls": c("polyring.sub_mul"),
        "polyring.sub_mul.terms": counts.get("polyring.sub_mul.terms", 0),
        "polyring.sub_mul.s": s("polyring.sub_mul"),
        "polyring.build.calls": c("polyring.build"),
        "polyring.build.s": s("polyring.build"),
        "polyring.reduce_full.calls": c("polyring.reduce_full"),
        "polyring.reduce_full.s": s("polyring.reduce_full"),
        "polyring.reduced_basis.s": s("polyring.reduced_basis"),
        "polyring.mul.calls": c("polyring.mul"),
        "polyring.mul.s": s("polyring.mul"),
        "polyring.add.s": s("polyring.add", "polyring.sub"),
        "polyring.exp_divides.calls": sum(v for k, v in counts.items()
                                          if k.startswith("polyring.exp_divides.")),
        "polyring.self_s": self_s.get("polyring", 0.0),
        "signature.sig_compare.calls": sum(v for k, v in counts.items()
                                           if k.startswith("signature.sig_compare.")),
        "f5engine.is_normalized.calls": c("f5engine.is_normalized"),
        "f5engine.is_normalized.s": s("f5engine.is_normalized"),
        "f5engine.is_rewritable.calls": c("f5engine.is_rewritable"),
        "f5engine.is_rewritable.s": s("f5engine.is_rewritable"),
        "f5engine.divisibility_tests_per_pair":
            engine_tests / pairs if pairs else 0.0,
        "f5engine.top_reduction_signed.calls": c("f5engine.top_reduction_signed"),
        "f5engine.top_reduction_signed.s": s("f5engine.top_reduction_signed"),
        "f5engine.validate_witnesses.calls": c("f5engine.validate_witnesses"),
        "f5engine.validate_witnesses.s": s("f5engine.validate_witnesses"),
        "f5engine.self_s": self_s.get("f5engine", 0.0),
        "f5engine.pairs_created": pairs,
        "f5engine.rejected_f5crit": stats.get("rejected_not_normalized", 0),
        "f5engine.rejected_rewrite": stats.get("rejected_rewritable", 0),
        "f5engine.reductions_to_zero": zeros,
        "f5engine.reduction_steps": stats.get("reduction_steps", 0),
        "f5engine.splits": stats.get("splits", 0),
        "f5engine.elements_added": added,
        "f5engine.useful_reduction_ratio": added / (added + zeros) if added + zeros else 0.0,
        "syzygy.certify_rejection.calls": c("syzygy.certify_rejection"),
        "syzygy.certify_rejection.s": s("syzygy.certify_rejection"),
        "syzygy.evaluate.calls": c("syzygy.evaluate"),
        "syzygy.evaluate.s": s("syzygy.evaluate"),
        "syzygy.mht.calls": c("syzygy.mht"),
        "syzygy.mht.s": s("syzygy.mht"),
        "falsifier.completely_normalized.calls": c("falsifier.completely_normalized"),
        "falsifier.completely_normalized.s": s("falsifier.completely_normalized"),
        "falsifier.self_s": self_s.get("falsifier", 0.0),
        "baseline.self_s": self_s.get("baseline", 0.0),
        "baseline.pairs_created": gm.get("pairs_created", 0),
        "baseline.rejected_product": gm.get("rejected_product", 0),
        "baseline.rejected_chain": gm.get("rejected_chain", 0),
        "baseline.reductions_to_zero": gm.get("reductions_to_zero", 0),
        "corpus.s": s("corpus.cyclic", "corpus.katsura"),
        "cli.parse_ideal.s": s("cli.parse_ideal"),
    }


def run(workload: str, prime: int, seconds: float, trace: bool, out_path: str) -> None:
    systems = workloads.systems(workload, prime)
    setup_s, _ = setup(systems)

    import gc
    import hashlib
    import json
    import resource

    import siggb.cli
    import siggb.corpus
    from tracer import Tracer

    tracer = Tracer() if trace else None
    clock = time.perf_counter

    def finish(outcome, out, first):
        """Digest the outcome's outputs, write them in full on the first
        round, and keep only what the round record needs."""
        digest = hashlib.sha256()
        if first:
            out.write(json.dumps({"payload": outcome.system.key}) + "\n")
        for obj in outcome.lines():
            line = json.dumps(obj, separators=(",", ":")) + "\n"
            digest.update(line.encode())
            if first:
                out.write(line)
        if first:
            out.write(json.dumps({"payload_end": outcome.system.key}) + "\n")
        failed = outcome.error is not None
        return {"key": outcome.system.key, "digest": digest.hexdigest(),
                "times": outcome.times, "error": failed,
                "engine_tests": outcome.engine_tests,
                "stats": None if failed else vars(outcome.state.stats),
                "gm_stats": None if failed else vars(outcome.gm_stats)}

    with open(out_path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"setup_s": setup_s}) + "\n")
        start = clock()
        rnd = 0
        while True:
            traced = trace and rnd % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            records = []
            try:
                inputs = [workloads.build(s, siggb.cli, siggb.corpus) for s in systems]
                for system, gens in zip(systems, inputs):
                    gc.collect()
                    outcome = run_system(system, gens, tracer if traced else None)
                    records.append(finish(outcome, out, rnd == 0))
                    del outcome
            finally:
                if traced:
                    tracer.uninstall()
            record = {"round": rnd, "traced": traced, "systems": records}
            if traced:
                record["layers"] = layer_metrics(tracer.summary(), records)
                if rnd == 1:
                    tracer.write_spans(out_path + ".spans.tsv.gz")
            out.write(json.dumps(record) + "\n")
            del inputs, records
            rnd += 1
            if clock() - start >= seconds and (not trace or traced):
                break
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.write(json.dumps({"peak_rss_mb": peak}) + "\n")


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "setup":
        seconds, _ = setup(workloads.systems(argv[2], int(argv[3])))
        print(repr(seconds))
        return 0
    if len(argv) == 7 and argv[1] == "run":
        run(argv[2], int(argv[3]), float(argv[4]), argv[5] == "1", argv[6])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
