#!/usr/bin/env python3
"""The siggb benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cyclic5-gf --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  The seed picks the prime of the GF(p)
workloads.  Set-up is timed in fresh processes (one discarded warm-up, then
SETUP_SAMPLES more, plus the worker's own) and reported as their median.  The
workload runs in one more fresh process (``worker.py``); each phase is
reported as its mean time per round.  This process then checks every
output against sympy (``checks.py``), tests the checks on corrupted copies
of the first round's outputs, and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` count systems over all rounds, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import refs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
TIME_LIMIT = 170.0  # seconds for the whole command

PHASES = ("basis_s", "oracle_s", "scan_s", "certify_s")


class BenchError(RuntimeError):
    pass


def _child(args, timeout, stdout=subprocess.PIPE):
    """Run a child process to its end; on timeout it is killed and reaped."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], stdout=stdout,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def setup_samples(workload, prime, deadline) -> list:
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = _child(["setup", workload, str(prime)], deadline - time.monotonic())
        if i:  # the first one compiles bytecode and fills the file cache
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def read_run(path):
    """Setup time, round records, first-round payloads and peak memory."""
    rounds, payloads, setup_s, peak = [], {}, None, None
    with open(path, encoding="utf-8") as fh:
        lines = iter(fh)
        for line in lines:
            obj = json.loads(line)
            if "payload" in obj:
                digest = hashlib.sha256()
                head, elements, certs = None, [], []
                for raw in lines:
                    item = json.loads(raw)
                    if "payload_end" in item:
                        break
                    digest.update(raw.encode())
                    if "element" in item:
                        elements.append(item["element"])
                    elif "cert" in item:
                        certs.append(item["cert"])
                    else:
                        head = item
                head.update(elements=elements, certs=certs)
                payloads[obj["payload"]] = (digest.hexdigest(), head)
            elif "round" in obj:
                rounds.append(obj)
            elif "setup_s" in obj:
                setup_s = obj["setup_s"]
            elif "peak_rss_mb" in obj:
                peak = obj["peak_rss_mb"]
    if not rounds or peak is None:
        raise BenchError("worker output is incomplete")
    return setup_s, rounds, payloads, peak


def check_run(systems, rounds, payloads):
    """Tally every system of every round; return it with the self-test result.

    The first round's outputs are checked in full; a later round passes when
    its digest equals the first round's, that is, when its outputs are the
    same.
    """
    tally = checks.Tally()
    verdict, references = {}, {}
    for system in systems:
        digest, payload = payloads[system.key]
        references[system.key] = refs.load(system)
        verdict[system.key] = (digest, checks.check_system(
            system, payload, references[system.key]))
    for rnd in rounds:
        for system, rec in zip(systems, rnd["systems"]):
            digest, problems = verdict[system.key]
            if rec["digest"] != digest:
                problems = ["outputs differ from the first round's"]
            tally.record(f"round {rnd['round']} {system.key}", problems, rec["error"])
    certified = next(s for s in systems if s.certify)
    payload = payloads[certified.key][1]
    if "error" in payload:  # nothing to corrupt, so the checks stay untested
        return tally, [f"no self-test: {certified.key} raised"]
    return tally, checks.self_test(certified, payload, references[certified.key])


def end_to_end(setup, rounds, peak) -> dict:
    """The median of the set-up samples; for each phase, its time summed over
    the workload's systems and averaged over the rounds (the phase's total
    time over the number of rounds)."""
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    for phase in PHASES:
        per_round = [sum(s["times"].get(phase, 0.0) for s in r["systems"]) for r in rounds]
        metrics[phase] = {"value": statistics.fmean(per_round), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def _phase_total(rnd) -> float:
    return sum(sum(s["times"].values()) for s in rnd["systems"])


def per_layer(rounds):
    """Counts from the first traced round, seconds averaged over the traced
    rounds, and the tracing overhead: the mean of the timed phases of traced
    rounds over that of untraced ones, minus one.  Returns the metrics and
    the counts that differ between traced rounds, which must repeat."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["layers"]
    metrics, unsteady = {}, []
    for name, value in first.items():
        if name.endswith("_s") or name.endswith(".s"):
            value = statistics.fmean(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": "s"}
        else:
            if any(r["layers"][name] != value for r in traced[1:]):
                unsteady.append(f"{name} differs between traced rounds")
            unit = "ratio" if isinstance(value, float) else "count"
            metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.fmean(_phase_total(r) for r in traced)
                / statistics.fmean(_phase_total(r) for r in plain) - 1.0)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, unsteady


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the siggb benchmark.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    deadline = time.monotonic() + TIME_LIMIT
    prime = workloads.prime_for_seed(args.seed)
    systems = workloads.systems(args.workload, prime)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    try:
        setup = setup_samples(args.workload, prime, deadline)
        # leave time for the checks after the worker's last round
        budget = deadline - time.monotonic() - 25.0
        with open(os.devnull, "w") as sink:
            _child(["run", args.workload, str(prime), str(args.seconds),
                    str(args.trace), out_path], budget, stdout=sink)
        worker_setup, rounds, payloads, peak = read_run(out_path)
        setup.append(worker_setup)
        tally, selftest = check_run(systems, rounds, payloads)
    except (BenchError, FileNotFoundError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    unsteady = []
    if args.trace:
        metrics, unsteady = per_layer(rounds)
    else:
        metrics = end_to_end(setup, [r for r in rounds if not r["traced"]], peak)
    for problem in tally.problems + selftest + unsteady:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong and not selftest and not unsteady,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
