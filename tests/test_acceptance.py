"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from fractions import Fraction

import pytest

from siggb.baseline import buchberger_basis, ideal_equal
from siggb.f5engine import (
    EngineOptions,
    PairCreated,
    certify_all,
    incremental_basis,
    interreduce,
    is_normalized,
    rejection_events,
)
from siggb.falsifier import completely_normalized, scan_run
from siggb.polyring import Cmp, PolyRing, spol, top_reduce
from siggb.signature import Signature, sig_compare, sig_mul
from siggb.syzygy import ModuleVector, evaluate, mht


def _report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- 1. golden basis ----------------------------------------------------------------

def test_golden_basis(golden_gens, golden_expected):
    t0 = time.time()
    state, _ = incremental_basis(golden_gens)
    f5 = interreduce(state)
    gm = buchberger_basis(golden_gens)
    elapsed = time.time() - t0
    ok = f5 == golden_expected and gm == golden_expected and elapsed < 1.0
    _report(f"golden basis (both engines, {elapsed * 1000:.0f} ms)", ok)


# -- 2. criterion hits --------------------------------------------------------------

def test_criterion_hits(golden_state):
    ring = golden_state.ring
    hits = set()
    for ev in rejection_events(golden_state):
        u, pos = ev.pair.component(ev.component)
        hits.add((ev.kind, ring.render_exp(u), golden_state.sig(pos).render(ring)))
    required_rewrite = [("x^2", "e1"), ("x*z", "x*e1"), ("x", "x^2*z*e1")]
    required_f5 = [("z^2", "x*e1"), ("y^3", "x^2*e1"), ("y", "x^2*e1")]
    ok = all(("rewrite", u, s) in hits for u, s in required_rewrite) and all(
        ("f5crit", u, s) in hits for u, s in required_f5
    )
    _report("criterion hits (three rewritten, three F5)", ok)


# -- 3. oracle equivalence ------------------------------------------------------------

def test_oracle_equivalence(corpus_runs):
    assert len(corpus_runs) >= 102
    failures = [r["name"] for r in corpus_runs if not ideal_equal(r["f5"], r["gm"])]
    _report(
        f"oracle equivalence on {len(corpus_runs)} systems", not failures
    )


# -- 4. certificate suite --------------------------------------------------------------

def test_certificate_suite(golden_state_certified, golden_ring):
    state = golden_state_certified
    ring = golden_ring
    certs = certify_all(state)
    ok = len(certs) == len(rejection_events(state)) and all(c.valid for c in certs)

    # the not-normalized discard of z^2*r6 against y^2t*r1
    c61 = next(c for c in certs if (c.pair.i, c.pair.j) == (6, 1))
    expected61 = ModuleVector(
        ring,
        {1: ring.parse("y^2*t"), 2: ring.parse("-x^2*t^2"), 6: ring.parse("-z^2")},
    )
    ok = ok and c61.vector == expected61
    # its evaluation identity: Spol(p6, p1) + x^2t^2 * p2 = 0
    _, _, s61 = spol(state.poly(6), state.poly(1))
    ok = ok and (s61 + state.poly(2).mul_term((2, 0, 0, 2))).is_zero

    # the rewritable discard of x*r8 against y^2t*r4
    c84 = next(c for c in certs if (c.pair.i, c.pair.j) == (8, 4))
    expected84 = ModuleVector(
        ring,
        {
            2: ring.parse("z^4*t"),
            5: ring.parse("-x"),
            8: ring.parse("-x"),
            9: ring.parse("-z"),
        },
    )
    ok = ok and c84.vector == expected84
    # its evaluation identity up to scalar: Spol(p8, p4) = -z * p9 in monic storage
    _, _, s84 = spol(state.poly(8), state.poly(4))
    zp9 = state.poly(9).mul_term((0, 0, 1, 0))
    ok = ok and (s84 == -zp9 or s84 == zp9)
    _report(f"certificate suite ({len(certs)} certificates, two pinned)", ok)


# -- 5. rejection soundness -------------------------------------------------------------

def test_rejection_soundness(golden_state, corpus_runs):
    checked = 0
    ok = True
    for state in [golden_state] + [r["state"] for r in corpus_runs]:
        basis = state.polys()
        for ev in rejection_events(state):
            _, _, s = spol(state.poly(ev.pair.i), state.poly(ev.pair.j))
            if not top_reduce(s, basis).is_zero:
                ok = False
            checked += 1
    _report(f"rejection soundness ({checked} rejected pairs reduce to zero)", ok)


# -- 6. relaxed-criterion scan ------------------------------------------------------------

def test_lemma_scan(golden_state, corpus_runs):
    ok = True
    pairs = 0
    firings = 0
    for state in [golden_state] + [r["state"] for r in corpus_runs]:
        report = scan_run(state)
        firings += report.part_b_firings
        ok = ok and report.lemma_holds
        for pair in state.events:
            if not isinstance(pair, PairCreated):
                continue
            pairs += 1
            nv = is_normalized(pair, state)
            cn = completely_normalized(pair, state, pair.snapshot)
            if nv.normalized != cn.completely_normalized:
                ok = False
    ok = ok and firings == 0
    _report(f"relaxed-criterion scan ({pairs} pairs, {firings} part-b firings)", ok)


# -- 7. property suites --------------------------------------------------------------------

def test_property_suites(golden_gens, golden_ring):
    rng = random.Random(20260810)
    order = golden_ring.order

    def rand_sig():
        return Signature(tuple(rng.randrange(7) for _ in range(4)), rng.randint(1, 5))

    ok = True
    for _ in range(10_000):
        a, b, c = rand_sig(), rand_sig(), rand_sig()
        u = tuple(rng.randrange(4) for _ in range(4))
        ab, bc, ac = (
            sig_compare(a, b, order),
            sig_compare(b, c, order),
            sig_compare(a, c, order),
        )
        # totality and antisymmetry
        if int(sig_compare(b, a, order)) != -int(ab):
            ok = False
        if (ab is Cmp.EQ) != (a == b):
            ok = False
        # transitivity
        if ab is not Cmp.GT and bc is not Cmp.GT and ac is Cmp.GT:
            ok = False
        # multiplication compatibility
        if sig_compare(sig_mul(u, a), sig_mul(u, b), order) is not ab:
            ok = False
    _report("module-order properties on 10^4 random triples", ok)

    state, _ = incremental_basis(golden_gens)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randrange(3) for _ in range(4))
            terms[e] = Fraction(rng.randint(-4, 4))
        return golden_ring.build(terms)

    lin_ok = True
    for _ in range(1_000):
        v = ModuleVector(
            golden_ring, {rng.randint(1, state.size): rand_poly() for _ in range(2)}
        )
        w = ModuleVector(
            golden_ring, {rng.randint(1, state.size): rand_poly() for _ in range(2)}
        )
        alpha = rand_poly()
        av = ModuleVector(golden_ring, {pos: p * alpha for pos, p in v.entries.items()})
        if evaluate(av + w, state) != alpha * evaluate(
            v, state
        ) + evaluate(w, state):
            lin_ok = False
    _report("evaluation linearity on 10^3 random module vectors", lin_ok)

    # admissibility after every engine step: per-step validation is wired into
    # the certified run; re-check the final state explicitly here
    cert_state, _ = incremental_basis(
        golden_gens, opts=EngineOptions(certify=True, validate_witnesses=True)
    )
    adm_ok = True
    for pos in range(1, cert_state.size + 1):
        elt = cert_state.element(pos)
        if evaluate(elt.witness, cert_state) != elt.poly:
            adm_ok = False
        if mht(elt.witness, cert_state) != elt.sig:
            adm_ok = False
    _report("witness admissibility throughout the certified golden run", adm_ok)
