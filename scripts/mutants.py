#!/usr/bin/env python3
"""Mutation checks of siggb: named exact source edits, each with the tests
that should kill it.

    python scripts/mutants.py              # run every mutant
    python scripts/mutants.py NAME ...     # run the named mutants
    python scripts/mutants.py --list       # list them and exit

Each mutant is applied to a temporary copy of ``src/`` (with ``tests/``,
``scripts/`` and ``pyproject.toml`` beside it, so its tests import the
mutated package and find their data), and its tests run there in a child
process under a timeout and a 2 GB address-space limit, stopping at the
first failure.  A mutant is killed when a test fails or the run outlasts
the timeout (some mutants hang); it survives when every test passes.  An
equivalent mutant computes what the original computes, so no test can kill
it: it is listed, marked, and not run.

A surviving mutant is a finding: mend it with a test, or record why it
survives.  Exits 1 when a mutant that is not equivalent survives or its
tests cannot run.  This is not part of the tier-1 suite, which only checks,
in ``tests/test_mutants.py``, that every anchor occurs exactly once in
``src/``, so that a refactor that orphans a mutant fails fast.
"""

import argparse
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "scripts")
MEMORY_LIMIT = 2 << 30  # bytes of address space for the test process


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # the mutated file, relative to the repository root
    edits: tuple  # (anchor, replacement) pairs; each anchor occurs once in src/
    tests: tuple  # pytest node ids that should kill it
    equivalent: bool = False  # no test can kill it
    note: str = ""


F5, POLY = "src/siggb/f5engine.py", "src/siggb/polyring.py"
REWRITER_TESTS = (
    "tests/test_f5engine.py::test_rewriter_names_a_newer_rule_added_after_a_query",
    "tests/test_f5engine.py::test_kept_rewritten_verdicts_match_a_walk_from_scratch",
)
KERNEL_TESTS = (
    "tests/test_polyring.py::test_reducers_match_the_list_so_far",
    "tests/test_polyring.py::test_reductions_after_a_failed_or_early_ended_one",
    "tests/test_f5engine.py::test_reducers_and_signed_reductions_interleaved_on_one_ring",
    "tests/test_f5engine.py::test_signed_step_memo_holds_fresh_steps",
)

MUTANTS = (
    # the Rewritten verdict a component record keeps (component_rewriter)
    Mutant(
        "rewriter-keeps-count-not-divisor", F5,
        (("        rec[6:] = n, rule\n", "        rec[6:] = n, None\n"),),
        REWRITER_TESTS,
        note="a query with no new rule falls back to no divisor",
    ),
    Mutant(
        "rewriter-walks-from-zero", F5,
        (("    walked, rule = rec[6:] or (0, None)",
          "    walked, rule = 0, (rec[6:] or (0, None))[1]"),),
        REWRITER_TESTS[:1],
        note="same answers, but every query walks every rule again",
    ),
    Mutant(
        "rewriter-memo-shared-across-positions", F5,
        (("    walked, rule = rec[6:] or (0, None)",
          "    memo = state.__dict__.setdefault('_shared', {}).setdefault(\n"
          "        (rec[5].index, rec[0]), [0, None])\n"
          "    walked, rule = memo"),
         ("        rec[6:] = n, rule\n", "        memo[:] = n, rule\n")),
        REWRITER_TESTS,
        note="one verdict per (index, u), whatever the position",
    ),
    # the reduction kernel (_sub_step, _remaining and the signed step memo)
    Mutant(
        "rational-rescale-skips-a-live-entry", POLY,
        (("            for k in heap:\n", "            for k in heap[1:]:\n"),),
        ("tests/test_polyring.py::test_rational_rescale_reaches_live_ids_on_both_sides",
         *KERNEL_TESTS[:1], *KERNEL_TESTS[2:]),
    ),
    Mutant(
        "signed-step-memo-shared-by-every-position", F5,
        (("        memo = state.steps[pos - 1]\n", "        memo = state.steps[0]\n"),),
        ("tests/test_f5engine.py::test_signed_step_memo_holds_fresh_steps",),
    ),
    Mutant(
        "heap-push-for-every-tail-term", POLY,
        (("            acc[i] = prev - tc * q\n",
          "            acc[i] = prev - tc * q\n            heappush(heap, negs[i])\n"),),
        KERNEL_TESTS,
    ),
    Mutant(
        "settle-in-id-order", POLY,
        (("for k in sorted(heap)]", "for k in sorted(heap, key=ring._ids.get)]"),),
        KERNEL_TESTS,
    ),
    Mutant(
        "lcm-field-max-strict", POLY,
        (("    m = ((a | guard) - b) & guard\n",
          "    m = ((a | guard) - b - (guard >> 31)) & guard\n"),),
        ("tests/test_f5engine.py::test_lcm_cofactors_match_tuple_max_and_sub",),
        equivalent=True,
        note="where two fields are equal, either one is the maximum",
    ),
)


def source_files() -> dict:
    """Every Python file under src/, by its path relative to the root."""
    out = {}
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, ROOT)] = fh.read()
    return out


def anchor_counts(mutant: Mutant, sources: dict) -> list:
    """(anchor, occurrences in all of src/, occurrences in the mutant's file)."""
    return [(old, sum(text.count(old) for text in sources.values()),
             sources.get(mutant.path, "").count(old))
            for old, _ in mutant.edits]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_mutant(mutant: Mutant, timeout: float) -> tuple[str, str]:
    """(verdict, detail): killed, survived or error, with the failing test,
    the timeout or pytest's last line."""
    with tempfile.TemporaryDirectory(prefix="siggb-mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for old, new in mutant.edits:
            if text.count(old) != 1:
                return "error", f"anchor found {text.count(old)} times: {old!r}"
            text = text.replace(old, new)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=timeout, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    if proc.returncode == 0:
        return "survived", lines[-1]
    if proc.returncode == 1:  # pytest: some test failed
        failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
        return "killed", (failed or lines)[-1].split(" - ")[0]
    return "error", f"pytest exit {proc.returncode}: {lines[-1]}"


def main() -> int:
    ap = argparse.ArgumentParser(description="Run siggb's mutation checks.")
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    ap.add_argument("--timeout", type=float, default=600.0,
                    help="seconds for one mutant's tests (default 600)")
    args = ap.parse_args()
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutant: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    if args.list:
        for m in chosen:
            mark = " (equivalent)" if m.equivalent else ""
            note = f"; {m.note}" if m.note else ""
            print(f"{m.name}{mark}: {m.path}, {len(m.tests)} tests{note}")
        return 0
    sources = source_files()
    bad = killed = runnable = 0
    for m in chosen:
        if any(total != 1 or here != 1 for _, total, here in anchor_counts(m, sources)):
            print(f"{m.name}: error: an anchor does not occur exactly once in {m.path}")
            bad += 1
            continue
        if m.equivalent:
            print(f"{m.name}: equivalent, not run ({m.note})")
            continue
        runnable += 1
        start = time.monotonic()
        verdict, detail = run_mutant(m, args.timeout)
        print(f"{m.name}: {verdict} in {time.monotonic() - start:.0f} s: {detail}", flush=True)
        killed += verdict == "killed"
        bad += verdict != "killed"
    print(f"{killed} of {runnable} non-equivalent mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
