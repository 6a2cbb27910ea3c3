#!/usr/bin/env python3
"""Reference reduced bases, computed by sympy outside siggb.

    python3 perfbench/refs.py    # recompute every stored reference

Each basis is ``sympy.groebner(..., order='grevlex')`` of the generator text in
``workloads.py``, with ``modulus=p`` over GF(p) and over ℚ otherwise, made
monic in grevlex.  The files in ``perfbench/refs/`` cover every system of every
workload for every prime the seed can pick, so a benchmark run only reads them.
sympy is used only here and in ``checks.py``; siggb does not depend on it.
"""

import json
import os
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "refs")


def _monic_terms(poly, prime) -> list:
    """The terms of poly, grevlex-descending, divided by the grevlex head
    coefficient and written as siggb prints them: GF(p) coefficients in
    [0, p), ℚ ones as n/d."""
    terms = poly.terms(order="grevlex")
    lc = terms[0][1]
    if prime is not None:
        inv = pow(int(lc) % prime, -1, prime)
        return [[list(m), str(int(c) * inv % prime)] for m, c in terms]
    out = []
    for m, c in terms:
        q = c / lc
        out.append([list(m), str(q.p) if q.q == 1 else f"{q.p}/{q.q}"])
    return out


def compute(system) -> dict:
    import sympy

    names, gens = workloads.generators(system)
    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    exprs = [sympy.sympify(g.replace("^", "**"), locals=local) for g in gens]
    if system.prime is None:
        G = sympy.groebner(exprs, *syms, order="grevlex", domain=sympy.QQ)
    else:
        G = sympy.groebner(exprs, *syms, order="grevlex", modulus=system.prime)
    basis = [_monic_terms(poly, system.prime) for poly in G.polys]
    return {"system": system.key, "vars": list(names), "sympy": sympy.__version__,
            "basis": basis}


def load(system) -> dict:
    """The stored reference; a missing one raises FileNotFoundError."""
    with open(os.path.join(REF_DIR, system.key + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    todo = {}
    for workload in workloads.WORKLOADS:
        for prime in workloads.PRIMES:
            for system in workloads.systems(workload, prime):
                todo[system.key] = system
    os.makedirs(REF_DIR, exist_ok=True)
    for key, system in sorted(todo.items()):
        t0 = time.perf_counter()
        ref = compute(system)
        with open(os.path.join(REF_DIR, key + ".json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{key}: {len(ref['basis'])} elements, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
