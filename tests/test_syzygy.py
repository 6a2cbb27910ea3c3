import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siggb.f5engine import EngineOptions, certify_all, incremental_basis, rejection_events
from siggb.polyring import (
    QQ,
    Cmp,
    DomainError,
    Field,
    MonomialOrder,
    PolyRing,
    StructureError,
    compare,
    exp_div,
    exp_mul,
    top_reduce,
)
from siggb.signature import LabeledPoly, Signature, sig_compare, sig_mul
from siggb.syzygy import ModuleVector, _offenders, evaluate, mht, principal_syzygy


def mv(ring, entries):
    return ModuleVector(ring, {pos: ring.parse(s) for pos, s in entries.items()})


# -- evaluate -------------------------------------------------------------------

def test_evaluate_trivial_syzygy(golden_state, golden_ring):
    v = ModuleVector.unit(1, golden_ring) - ModuleVector.unit(1, golden_ring)
    assert evaluate(v, golden_state).is_zero


def test_evaluate_principal(golden_state, golden_ring):
    p1, p2 = golden_state.poly(1), golden_state.poly(2)
    v = ModuleVector(golden_ring, {1: p2}) - ModuleVector(golden_ring, {2: p1})
    assert evaluate(v, golden_state).is_zero


def test_evaluate_creation_relation(golden_state, golden_ring):
    # x e1 - yz e2 - e6 evaluates to zero on the computed basis
    v = mv(golden_ring, {1: "x", 2: "-y*z", 6: "-1"})
    assert evaluate(v, golden_state).is_zero


def test_evaluate_unknown_position(golden_state, golden_ring):
    v = ModuleVector.unit(99, golden_ring)
    with pytest.raises(StructureError):
        evaluate(v, golden_state)
    for pos in (0, golden_state.size + 1):
        v = ModuleVector(golden_ring, {1: golden_ring.one, pos: golden_ring.one})
        with pytest.raises(StructureError):
            evaluate(v, golden_state)


# One product kernel behind ``evaluate``: the reference multiplies every
# entry term by every basis term with the field's own operations and sorts a
# dict once.  ``Basis`` is the part of a basis state that ``evaluate`` reads,
# so the basis can live in any ring.

class Basis:
    def __init__(self, polys):
        self.polys = polys
        self.elements = [LabeledPoly(None, p) for p in polys]

    @property
    def size(self):
        return len(self.polys)

    def poly(self, pos):
        return self.polys[pos - 1]


def ref_evaluate(v, basis):
    ring = v.ring
    of = ring.field.of
    acc = {}
    for pos, coeff in v.entries.items():
        for e1, c1 in coeff.terms:
            for e2, c2 in basis.poly(pos).terms:
                m = exp_mul(e1, e2)
                acc[m] = of(acc.get(m, 0) + of(c1 * c2))
    live = [(m, c) for m, c in acc.items() if c]
    live.sort(key=lambda t: ring.key(t[0]), reverse=True)
    return ring.build(live)


EVAL_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"))


@st.composite
def evaluate_case(draw):
    """A ring over ℚ (coefficient denominators up to 12) or GF(7), a basis
    of 1-4 polynomials and a module vector over it, possibly empty."""
    ring = PolyRing(("x", "y", "z"), draw(st.sampled_from((QQ, Field(7)))),
                    draw(st.sampled_from(EVAL_ORDERS)))
    if ring.field.p:
        coeffs = st.integers(-9, 9).map(ring.field.of)
    else:
        coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12)
    exps = st.tuples(*([st.integers(0, 2)] * 3))
    poly = st.dictionaries(exps, coeffs, max_size=4).map(ring.build)
    basis = Basis(draw(st.lists(poly, min_size=1, max_size=4)))
    entries = draw(st.dictionaries(st.integers(1, basis.size), poly, max_size=4))
    return ring, basis, ModuleVector(ring, entries)


@given(evaluate_case())
@settings(max_examples=300)
def test_evaluate_matches_dict_and_sort(case):
    ring, basis, v = case
    ctype = int if ring.field.p else Fraction
    got, want = evaluate(v, basis), ref_evaluate(v, basis)
    assert got.terms == want.terms
    assert [type(c) for _, c in got.terms] == [type(c) for _, c in want.terms]
    assert all(type(c) is ctype for _, c in got.terms)
    assert evaluate(ModuleVector(ring), basis) == ring.zero
    # h*e_1 - h*e_last over a basis whose last element repeats the first,
    # and the principal syzygy of the first two, cancel to zero
    twin = Basis(basis.polys + [basis.poly(1)])
    for h in v.entries.values():
        assert evaluate(ModuleVector(ring, {1: h, twin.size: -h}), twin).is_zero
    if basis.size > 1:
        principal = ModuleVector(ring, {1: basis.poly(2), 2: -basis.poly(1)})
        assert evaluate(principal, basis).is_zero


def test_evaluate_known_value_over_rationals():
    ring = PolyRing(("x", "y"))
    basis = Basis([ring.parse("2/3*x + 1/5"), ring.parse("3/7*y")])
    v = ModuleVector(ring, {1: ring.parse("3/4*y"), 2: ring.parse("-7/6*x + 1/9")})
    got = evaluate(v, basis)
    assert got == ring.parse("3/20*y + 1/21*y")
    assert [type(c) for _, c in got.terms] == [Fraction]


def test_evaluate_linear(golden_state, golden_ring):
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randrange(3) for _ in range(4))
            terms[e] = Fraction(rng.randint(-5, 5))
        return golden_ring.build(terms)

    for _ in range(50):
        v = ModuleVector(golden_ring, {rng.randint(1, 10): rand_poly() for _ in range(2)})
        w = ModuleVector(golden_ring, {rng.randint(1, 10): rand_poly() for _ in range(2)})
        a = rand_poly()
        av = ModuleVector(golden_ring, {pos: p * a for pos, p in v.entries.items()})
        left = evaluate(av + w, golden_state)
        right = a * evaluate(v, golden_state) + evaluate(w, golden_state)
        assert left == right


# -- mht --------------------------------------------------------------------------

def test_mht_known_values(golden_state, golden_ring):
    v = mv(golden_ring, {1: "x", 2: "-y*z", 6: "-1"})
    assert mht(v, golden_state) == Signature((1, 0, 0, 0), 1)
    assert mht(ModuleVector.unit(3, golden_ring), golden_state) == Signature((0, 0, 0, 0), 3)
    s12 = principal_syzygy(2, 1, golden_state)
    assert mht(s12, golden_state) == Signature((1, 0, 2, 0), 1)  # xz^2 e1


def test_mht_zero_vector(golden_state, golden_ring):
    with pytest.raises(DomainError):
        mht(ModuleVector(golden_ring), golden_state)


# ``mht`` and ``_offenders`` read only each entry's head and compare packed
# keys, index first; the references scan every term through ``sig_compare``.

def ref_mht(v, state):
    order = v.ring.order
    best = None
    for pos, coeff in v.entries.items():
        base = state.sig(pos)
        for e, _ in coeff.terms:
            cand = sig_mul(e, base)
            if best is None or sig_compare(cand, best, order) is Cmp.GT:
                best = cand
    return best


def ref_offenders(v, state, bound, skip):
    order = v.ring.order
    out = {}
    for pos, coeff in v.entries.items():
        if pos in skip:
            continue
        base = state.sig(pos)
        for e, c in coeff.terms:
            if sig_compare(sig_mul(e, base), bound, order) is not Cmp.LT:
                out[pos] = (e, c)
                break
    return out


@given(st.data())
@settings(max_examples=300)
def test_mht_and_offenders_match_all_terms_scan(golden_state, golden_ring, data):
    state = golden_state
    exps = st.tuples(*([st.integers(0, 3)] * 4))
    coeffs = st.integers(-3, 3).map(Fraction)
    poly = st.dictionaries(exps, coeffs, max_size=4).map(golden_ring.build)
    v = ModuleVector(golden_ring, data.draw(
        st.dictionaries(st.integers(1, state.size), poly, max_size=5)))
    if v.is_zero:
        return
    assert mht(v, state) == ref_mht(v, state)
    # bounds on every index, and every module term of v itself, so that
    # the scan meets equal terms and terms of other indices
    terms = [sig_mul(e, state.sig(pos)) for pos, c in v.entries.items() for e, _ in c.terms]
    bound = data.draw(st.sampled_from(terms) | st.builds(Signature, exps, st.integers(1, 3)))
    skip = data.draw(st.sets(st.integers(1, state.size), max_size=3))
    assert _offenders(v, state, bound, skip) == ref_offenders(v, state, bound, skip)


# -- principal syzygies ------------------------------------------------------------

def test_principal_syzygy_known_value(golden_state, golden_ring):
    s = principal_syzygy(2, 1, golden_state)
    assert s == mv(golden_ring, {1: "x*z^2 - y^2*t", 2: "-y*z^3 + x^2*t^2"})


def test_principal_syzygy_antisymmetry(golden_state, golden_ring):
    assert principal_syzygy(3, 3, golden_state).is_zero


def test_principal_syzygies_evaluate_to_zero(golden_state):
    for a in range(1, golden_state.size + 1):
        for b in range(1, golden_state.size + 1):
            assert evaluate(principal_syzygy(a, b, golden_state), golden_state).is_zero


# -- t-representations ---------------------------------------------------------------
#
# An admissible labeled t-representation of a target: a module vector that
# evaluates to the target, each of whose products stays below t and whose
# module terms stay within the target's signature.  The engine never builds
# one, so the check lives here, with the tests that pin its three verdicts.

@dataclass
class TRepresentation:
    target: LabeledPoly
    t: tuple[int, ...]
    combination: ModuleVector


@dataclass
class RepCheck:
    valid: bool
    reason: str | None = None
    position: int | None = None


def check_t_representation(rep: TRepresentation, state, order=None) -> RepCheck:
    """Check evaluation equality, the head-term bound, and the signature bound."""
    ring = rep.combination.ring
    order = order or ring.order
    if evaluate(rep.combination, state) != rep.target.poly:
        return RepCheck(False, "evaluation")
    for pos in rep.combination.positions():
        lam = rep.combination.entries[pos]
        prod = lam * state.poly(pos)
        if not prod.is_zero:
            if compare(prod.ht, rep.t, order) is not Cmp.LT:
                return RepCheck(False, "head-term", pos)
        bound = sig_mul(lam.ht, state.sig(pos))
        if sig_compare(bound, rep.target.sig, order) is Cmp.GT:
            return RepCheck(False, "signature", pos)
    return RepCheck(True)


def test_t_representation_valid(golden_state, golden_ring):
    # Spol(p1, p3) = x*p6 - z*p4 is admissible below t = x^2yz^3
    target = LabeledPoly(
        Signature((2, 0, 0, 0), 1), golden_ring.parse("z^5*t - x^4*t^2")
    )
    rep = TRepresentation(
        target, (2, 1, 3, 0), mv(golden_ring, {6: "x", 4: "-z"})
    )
    out = check_t_representation(rep, golden_state)
    assert out.valid


def test_t_representation_head_term_boundary(golden_state, golden_ring):
    # a combination term whose head reaches t exactly is rejected
    target = LabeledPoly(Signature((0, 0, 0, 0), 1), golden_state.poly(1))
    rep = TRepresentation(target, golden_state.poly(1).ht, mv(golden_ring, {1: "1"}))
    out = check_t_representation(rep, golden_state)
    assert not out.valid and out.reason == "head-term"


def test_t_representation_signature_bound(golden_state, golden_ring):
    # evaluation matches but the combination uses a too-large signature
    target = LabeledPoly(
        Signature((0, 0, 0, 0), 3), golden_state.poly(1).mul_term((0, 0, 0, 1))
    )
    rep = TRepresentation(target, (5, 5, 5, 5), mv(golden_ring, {1: "t"}))
    out = check_t_representation(rep, golden_state)
    assert not out.valid and out.reason == "signature"


def test_t_representation_empty_for_zero(golden_state, golden_ring):
    target = LabeledPoly(Signature((0, 0, 0, 0), 1), golden_ring.zero)
    rep = TRepresentation(target, (1, 0, 0, 0), ModuleVector(golden_ring))
    assert check_t_representation(rep, golden_state).valid


def test_t_representation_implies_reduction_below_t(golden_state, golden_ring):
    # a valid representation means top reduction cannot get stuck at or above t
    target = LabeledPoly(
        Signature((2, 0, 0, 0), 1), golden_ring.parse("z^5*t - x^4*t^2")
    )
    t = (2, 1, 3, 0)
    rep = TRepresentation(target, t, mv(golden_ring, {6: "x", 4: "-z"}))
    assert check_t_representation(rep, golden_state).valid
    listed = [golden_state.poly(p) for p in rep.combination.positions()]
    nf = top_reduce(target.poly, listed)
    assert nf.is_zero or compare(nf.ht, t, golden_ring.order) is Cmp.LT


# -- certificates ----------------------------------------------------------------------

def test_certificates_all_valid(golden_state_certified):
    certs = certify_all(golden_state_certified)
    assert len(certs) == len(rejection_events(golden_state_certified))
    assert all(c.valid for c in certs)


def test_certificate_requires_witnesses(golden_state):
    with pytest.raises(DomainError):
        certify_all(golden_state)


def test_certificate_mht_cancellation(golden_state_certified):
    # the two syzygies a certificate combines share their module head term,
    # the bound u*Sig(r_k): rebuilt here from the creation syzygies and the
    # verdict of each rejection
    from siggb.syzygy import _creation_syzygy

    state = golden_state_certified
    events = rejection_events(state)
    assert {ev.kind for ev in events} == {"f5crit", "rewrite"}
    for ev in events:
        u, pos = ev.pair.component(ev.component)
        sig = state.sig(pos)
        bound = sig_mul(u, sig)
        term = exp_mul(u, sig.gamma)
        if ev.kind == "f5crit":
            lam = exp_div(term, state.poly(ev.witness).ht)
            b_vec = principal_syzygy(ev.witness, sig.index, state).mul_term(lam)
        else:
            label = ev.rule.label
            s_rew = (_creation_syzygy(label, state) if isinstance(label, int)
                     else state.syzygy_trails[label])
            b_vec = s_rew.mul_term(exp_div(term, ev.rule.gamma))
        assert mht(b_vec, state) == bound
        a_vec = _creation_syzygy(pos, state).mul_term(u)
        if not a_vec.is_zero:
            assert mht(a_vec, state) == bound


def test_certificate_trivial_syzygy_case(golden_state_certified, golden_ring):
    # input-component rejection: the certificate is the rewriter syzygy alone
    state = golden_state_certified
    ev = next(
        e
        for e in rejection_events(state)
        if (e.pair.i, e.pair.j) == (1, 3) and e.kind == "rewrite"
    )
    from siggb.syzygy import certify_rejection

    cert = certify_rejection(ev.pair, ev, state)
    assert cert.valid
    assert cert.vector == mv(golden_ring, {1: "-x^2", 2: "x*y*z", 6: "x"})


def test_certificate_rendering(golden_state_certified):
    certs = certify_all(golden_state_certified)
    text = certs[0].render(golden_state_certified)
    assert "syzygy:" in text and "verdict: valid" in text


# -- certificate templates -----------------------------------------------------------
# ``certify_rejection`` builds one template per (position, criterion, witness
# or rule) at the least multiplier and shifts it.  The reference builds every
# certificate from scratch at its own u and checks it the same way.

def _certified_state(gens):
    state, _ = incremental_basis(gens, opts=EngineOptions(certify=True))
    return state


def _lex(gens):
    ring = gens[0].ring
    lex = PolyRing(ring.names, ring.field, MonomialOrder("lex"))
    return [lex.build(dict(g.terms)) for g in gens]


@pytest.fixture(scope="module")
def template_states(golden_gens):
    from siggb.corpus import cyclic, katsura

    return {
        "golden": _certified_state(golden_gens),
        "cyclic-4": _certified_state(cyclic(4)),
        "katsura-4 over Q": _certified_state(katsura(4, None)),
        "cyclic-4 lex": _certified_state(_lex(cyclic(4))),
    }


def _from_scratch(ev, state):
    from siggb.syzygy import _template

    u, _ = ev.pair.component(ev.component)
    return _template(ev.pair, ev, state, u)


@pytest.mark.parametrize("name", ["golden", "cyclic-4", "katsura-4 over Q", "cyclic-4 lex"])
def test_shifted_templates_equal_certificates_from_scratch(template_states, name):
    state = template_states[name]
    events = rejection_events(state)
    derived = certify_all(state)
    assert len(derived) == len(events)
    # fewer templates than rejections, or nothing is shared
    assert len(state.cert_templates) < len(events)
    for ev, got in zip(events, derived):
        want = _from_scratch(ev, state)
        assert got.vector == want.vector
        assert got.bounds == want.bounds
        assert got.render(state) == want.render(state)


def test_least_multiplier_runs_once_per_template(monkeypatch):
    # a kept template holds u_min as its flagged u, so only a key without a
    # template works it out
    from siggb import syzygy
    from siggb.corpus import cyclic

    state = _certified_state(cyclic(4))
    calls = []
    least = syzygy._least_multiplier
    monkeypatch.setattr(syzygy, "_least_multiplier", lambda *a: calls.append(a) or least(*a))
    certs = certify_all(state)
    assert (len(certs), len(state.cert_templates), len(calls)) == (148, 52, 52)


def test_template_that_fails_its_check_is_never_kept(template_states):
    # An F5 verdict whose witness is an input of smaller index than the
    # component: the witness entry of the principal syzygy lies above the
    # bound, so the template fails its check.  It raises on every call and is
    # never kept; a kept one would be shifted unchecked by the next call.
    from siggb.f5engine import PairRejected
    from siggb.syzygy import CertificateError, certify_rejection

    state = template_states["cyclic-4"]
    ev, w = next(
        (e, w)
        for e in rejection_events(state)
        if e.kind == "f5crit"
        for w in range(1, state.sig(e.pair.component(e.component)[1]).index)
        if all(h <= t for h, t in zip(state.poly(w).ht, e.pair.msig(e.component).gamma))
    )
    pos = ev.pair.component(ev.component)[1]
    forged = PairRejected(ev.pair, "f5crit", "creation", ev.component, w)
    for _ in range(2):
        with pytest.raises(CertificateError, match="failed verification"):
            certify_rejection(ev.pair, forged, state)
    assert (pos, "f5crit", w) not in state.cert_templates


def test_forged_rewrite_verdict_is_refused_after_a_genuine_one(template_states):
    # An F5 rejection of u*r_k with witness w, certified first, memoises a
    # template.  A forged Rewritten verdict on the same component that names
    # a rule labelled w (the rule of a different index) must not borrow it.
    from siggb.f5engine import PairRejected, RewriteRule
    from siggb.syzygy import CertificateError, certify_rejection

    state = template_states["cyclic-4"]
    ev = next(e for e in rejection_events(state) if e.kind == "f5crit" and e.witness > state.m)
    u, pos = ev.pair.component(ev.component)
    certify_rejection(ev.pair, ev, state)
    rule = RewriteRule(state.poly(ev.witness).ht, state.sig(pos).index, ev.witness)
    forged = PairRejected(ev.pair, "rewrite", "pop", ev.component, rule=rule)
    with pytest.raises(CertificateError):
        certify_rejection(ev.pair, forged, state)


def test_verdict_that_does_not_divide_is_refused(template_states):
    # a witness whose head does not divide u*Gamma(r_k) leaves u below the
    # least multiplier in some variable
    from siggb.f5engine import PairRejected
    from siggb.syzygy import CertificateError, certify_rejection

    state = template_states["golden"]
    for ev in rejection_events(state):
        if ev.kind != "f5crit":
            continue
        msig = ev.pair.msig(ev.component)
        for w in range(1, state.size + 1):
            ht = state.poly(w).ht
            if any(h > t for h, t in zip(ht, msig.gamma)):
                forged = PairRejected(ev.pair, "f5crit", "creation", ev.component, w)
                with pytest.raises(CertificateError):
                    certify_rejection(ev.pair, forged, state)
                return
    pytest.fail("no position to forge a witness from")


def test_verdict_below_a_kept_template_is_refused(template_states):
    # the kept template of (position, criterion, witness) gives u_min; a
    # component u of that key that is no multiple of it is still refused,
    # before any shift
    from siggb.f5engine import CriticalPair, PairRejected
    from siggb.syzygy import CertificateError, certify_rejection

    state = template_states["cyclic-4"]
    zero = state.ring.zero_exp
    for ev in rejection_events(state):
        if ev.kind == "f5crit":
            certify_rejection(ev.pair, ev, state)
            key = (ev.pair.component(ev.component)[1], "f5crit", ev.witness)
            if state.cert_templates[key].flagged_u != zero:
                break
    # a forged record of u = 1 for the flagged component, with nothing read
    p = ev.pair
    u, pos = p.component(ev.component)
    forged = [zero, None, 0, None, None, state.sig(pos)]
    rec_i, rec_j = (forged, p.rec_j) if ev.component == "i" else (p.rec_i, forged)
    pair = CriticalPair(p.i, p.j, rec_i, rec_j, p.degree, p.snapshot)
    assert pair.component(ev.component) == (zero, pos)
    verdict = PairRejected(pair, "f5crit", "creation", ev.component, ev.witness)
    with pytest.raises(CertificateError, match="does not apply"):
        certify_rejection(pair, verdict, state)
