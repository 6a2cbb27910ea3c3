#!/usr/bin/env python3
"""Write the bench trajectory file ``BENCH_<pr>.json`` from fixed inputs.

    python3 scripts/bench.py --pr 9 [--baseline CHECKOUT]

Run from the root of a checkout; it takes about fifteen minutes.  The file
holds:

- every ``perfbench/run.py`` result, for both workloads of ``BENCHMARK.json``
  at each seed of ``SEEDS`` with ``--trace 0``, and one ``--trace 1`` run
  at the first seed, each run as long as ``BENCHMARK.json`` sets;
- f5 (``incremental_basis`` then ``interreduce``) and gm
  (``buchberger_basis``) wall times on cyclic-5 over GF(32003)
  (``f5.cyclic5_s``, the criteria-bound run), on katsura-5 over GF(32003)
  (``katsura5``) and over Q (``katsura5qq``), on katsura-6 over GF(32003)
  (``katsura6``, whose gm run is the reduction-bound oracle of the
  ``katsura6-gf`` workload), and on the 100-ideal corpus of
  ``scripts/run_corpus.py``, the median over ``ENGINE_ROUNDS`` fresh child
  processes of ``REPEATS`` runs each;
- cyclic-6 over GF(32003), the run where the criteria's per-pair cost
  dominates: ``CYCLIC6_RUNS`` f5 runs (``incremental_basis`` alone), each in
  a fresh child process, their median wall time (``f5.cyclic6_s``) and the
  largest of their peak resident sizes (``f5.cyclic6_peak_mb``, the
  child's own ``ru_maxrss``).  With ``--baseline``, the same runs of the
  checkout named there alternate with these, as do the f5 and gm child
  processes, recorded under ``baseline``, so that one file compares the
  two on the same machine at the same time;
- the ``scan_run`` wall time over the corpus states that each f5 corpus run
  built (``scan.corpus100_s``), and over one fresh cyclic-5 over GF(32003)
  state (``scan.cyclic5_s``), ``REPEATS`` passes each;
- the ``certify_all`` wall times on cyclic-5 over GF(32003)
  (``certify.cyclic5_s``) and on katsura-5 over Q (``certify.katsura5qq_s``),
  each certified with witness validation as ``siggb --certify`` runs it,
  ``CERTIFY_REPEATS`` fresh runs each.  These run in the same child
  processes as the f5 and gm times, so with ``--baseline`` they alternate
  with the baseline's too, and their medians are over every round;
- the wall time and the summary line of the tier-1 tests;
- the size of ``src/siggb/*.py``: every line (``size.src_lines``), and the
  lines that hold code, without docstrings, comments and blank lines
  (``size.src_code_lines``), in total and per module
  (``size.src_code_lines_by_module``, by file name);
- the git sha, whether the tree had uncommitted changes, the Python version
  and the processor count.

It only calls the benchmark: nothing under ``perfbench/`` changes, and
``BENCHMARK.json`` is only read.  Exits 1 when a benchmark run fails or is
not correct, or when the tier-1 tests fail; the file is written either way.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2)
REPEATS = 11
CERTIFY_REPEATS = 5
ENGINE_ROUNDS = 3
CYCLIC6_RUNS = 3
CORPUS_COUNT = 100
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its JSON result line, or its error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        run.update(json.loads(lines[-1]))
    else:
        run["error"] = proc.stderr.strip().splitlines()[-1:] or ["no output"]
    return run


def engine_times(repeats: int) -> dict:
    """Median wall seconds of f5 and gm on cyclic-5, katsura-5 and
    katsura-6 over GF(32003), on katsura-5 over Q and on the corpus, of
    ``scan_run`` over
    the states of each f5 corpus run, and of ``scan_times`` and
    ``certify_times``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from siggb.baseline import buchberger_basis
    from siggb.corpus import corpus_shapes, cyclic, katsura, random_ideal
    from siggb.f5engine import incremental_basis, interreduce
    from siggb.falsifier import scan_run

    def f5(gens):
        state = incremental_basis(gens)[0]
        interreduce(state)
        return state

    # built afresh for every run, so each run starts with cold ring caches
    inputs = {
        "cyclic5": lambda: [cyclic(5, 32003)],
        "katsura5": lambda: [katsura(5)],
        "katsura5qq": lambda: [katsura(5, None)],
        "katsura6": lambda: [katsura(6)],
        f"corpus{CORPUS_COUNT}": lambda: [random_ideal(k, d, n, s) for k, d, n, s
                                          in corpus_shapes(CORPUS_COUNT, 0)],
    }
    engines = {
        "f5": f5,
        "gm": buchberger_basis,
    }
    scanned = ("f5", f"corpus{CORPUS_COUNT}")
    out = {}
    for name, make in inputs.items():
        for engine, run in engines.items():
            samples, scans = [], []
            for _ in range(repeats):
                systems = make()
                t0 = time.perf_counter()
                results = [run(gens) for gens in systems]
                samples.append(time.perf_counter() - t0)
                if (engine, name) == scanned:
                    t0 = time.perf_counter()
                    for state in results:
                        scan_run(state)
                    scans.append(time.perf_counter() - t0)
            out[f"{engine}.{name}_s"] = {"median": statistics.median(samples),
                                         "samples": samples}
            if scans:
                out[f"scan.{name}_s"] = {"median": statistics.median(scans),
                                         "samples": scans}
    out.update(scan_times(repeats))
    out.update(certify_times(CERTIFY_REPEATS))
    return out


def scan_times(repeats: int) -> dict:
    """Median wall seconds of ``scan_run`` over one fresh cyclic-5 state over
    GF(32003)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from siggb.corpus import cyclic
    from siggb.f5engine import incremental_basis
    from siggb.falsifier import scan_run

    state = incremental_basis(cyclic(5, 32003))[0]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scan_run(state)
        samples.append(time.perf_counter() - t0)
    return {"scan.cyclic5_s": {"median": statistics.median(samples), "samples": samples}}


def certify_times(repeats: int) -> dict:
    """Median wall seconds of ``certify_all`` on a fresh certified cyclic-5
    over GF(32003) and katsura-5 over Q."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from siggb.corpus import cyclic, katsura
    from siggb.f5engine import EngineOptions, certify_all, incremental_basis

    opts = EngineOptions(certify=True, validate_witnesses=True)
    out = {}
    for name, gens in (("cyclic5", lambda: cyclic(5, 32003)),
                       ("katsura5qq", lambda: katsura(5, None))):
        samples = []
        for _ in range(repeats):
            state, _ = incremental_basis(gens(), opts=opts)
            t0 = time.perf_counter()
            certs = certify_all(state)
            samples.append(time.perf_counter() - t0)
        out[f"certify.{name}_s"] = {"median": statistics.median(samples), "samples": samples,
                                    "certificates": len(certs)}
    return out


# One cyclic-6 f5 run, printed as [wall seconds, peak resident MB].
_CYCLIC6_RUN = """
import json, resource, time
from siggb.corpus import cyclic
from siggb.f5engine import incremental_basis
gens = cyclic(6, 32003)
t0 = time.perf_counter()
incremental_basis(gens)
secs = time.perf_counter() - t0
print(json.dumps([secs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


def engine_times_of(checkouts: dict) -> dict:
    """``engine_times`` of each checkout, by label: ``ENGINE_ROUNDS`` rounds
    of one child process per checkout, each importing siggb from that
    checkout's ``src/``; a median is over the samples of every round, and
    any other field of a measurement is kept from its last round."""
    samples = {label: {} for label in checkouts}
    for _ in range(ENGINE_ROUNDS):
        for label, root in checkouts.items():
            code = (f"import json, sys; sys.path.insert(0, {os.path.join(ROOT, 'scripts')!r}); "
                    f"import bench; bench.ROOT = {root!r}; "
                    "print(json.dumps(bench.engine_times(bench.REPEATS)))")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True)
            for name, run in json.loads(proc.stdout).items():
                kept = samples[label].setdefault(name, {"samples": []})
                kept.update(run, samples=kept["samples"] + run["samples"])
    return {label: {name: {**run, "median": statistics.median(run["samples"])}
                    for name, run in runs.items()}
            for label, runs in samples.items()}


def cyclic6_times(checkouts: dict) -> dict:
    """``f5.cyclic6_s`` and ``f5.cyclic6_peak_mb`` of each checkout, by
    label: ``CYCLIC6_RUNS`` rounds of one fresh child process per checkout,
    each importing siggb from that checkout's ``src/``."""
    samples = {label: ([], []) for label in checkouts}
    for _ in range(CYCLIC6_RUNS):
        for label, root in checkouts.items():
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            proc = subprocess.run([sys.executable, "-c", _CYCLIC6_RUN], env=env,
                                  capture_output=True, text=True, check=True)
            secs, peak = json.loads(proc.stdout)
            samples[label][0].append(secs)
            samples[label][1].append(peak)
    return {label: {"f5.cyclic6_s": {"median": statistics.median(secs), "samples": secs},
                    "f5.cyclic6_peak_mb": {"max": max(peaks), "samples": peaks}}
            for label, (secs, peaks) in samples.items()}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def _code_lines(path: str) -> int:
    """Lines of a Python file that hold a token of code: comments, blank
    lines and docstrings (a string that is a statement by itself) are left
    out, and a token spanning several lines counts each of them."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(path, "rb") as fh:
        toks = list(tokenize.tokenize(fh.readline))
    lines = set()
    at_start = True  # the next token begins a statement
    for tok, nxt in zip(toks, toks[1:]):  # the last token is ENDMARKER
        if tok.type in layout:
            at_start = at_start or tok.type in (tokenize.NEWLINE, tokenize.INDENT,
                                                tokenize.DEDENT)
            continue
        docstring = (tok.type == tokenize.STRING and at_start
                     and nxt.type in (tokenize.NEWLINE, tokenize.COMMENT))
        at_start = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def source_size() -> dict:
    """Every line of ``src/siggb/*.py``, and the lines that hold code, in
    total and by module."""
    files = sorted(glob.glob(os.path.join(ROOT, "src", "siggb", "*.py")))
    total = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    by_module = {os.path.basename(p): _code_lines(p) for p in files}
    return {"src_lines": total, "src_code_lines": sum(by_module.values()),
            "src_code_lines_by_module": by_module}


def main() -> int:
    ap = argparse.ArgumentParser(description="Write BENCH_<pr>.json.")
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--baseline", metavar="CHECKOUT",
                    help="another checkout whose cyclic-6 runs alternate with these")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {
        "pr": args.pr,
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "size": source_size(),
        "perfbench": [],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            record["perfbench"].append(perfbench(workload, seed, spec["run_seconds"], 0))
        record["perfbench"].append(perfbench(workload, SEEDS[0], spec["run_seconds"], 1))
    checkouts = {"tree": ROOT}
    if args.baseline:
        checkouts["baseline"] = os.path.abspath(args.baseline)
    engines = engine_times_of(checkouts)
    record["engines"] = engines["tree"]
    cyclic6 = cyclic6_times(checkouts)
    record["engines"].update(cyclic6["tree"])
    if args.baseline:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkouts["baseline"],
                             capture_output=True, text=True).stdout.strip()
        record["baseline"] = {"git_sha": sha or None,
                              "engines": {**engines["baseline"], **cyclic6["baseline"]}}
    record["tier1"] = tier1()

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    bad = [r for r in record["perfbench"]
           if r["exit"] or not r.get("correct") or r.get("failed")]
    for r in bad:
        print(f"FAIL perfbench {r['workload']} seed {r['seed']} trace {r['trace']}",
              file=sys.stderr)
    if record["tier1"]["exit"]:
        print(f"FAIL tier-1: {record['tier1']['summary']}", file=sys.stderr)
    print(path)
    return 1 if bad or record["tier1"]["exit"] else 0


if __name__ == "__main__":
    sys.exit(main())
