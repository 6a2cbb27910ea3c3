"""The benchmark's per-layer trace (perfbench/tracer.py) wraps siggb's
functions by name.  A renamed or moved function would silently drop its layer
from the trace, so every name the tracer lists must still resolve here."""

import importlib
import importlib.util
import os
import sys

import siggb
import siggb.cli
import siggb.corpus
import siggb.polyring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench(name):
    """perfbench/<name>.py, loaded as it is, as module perfbench_<name>."""
    path = os.path.join(ROOT, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_and_counted_names_resolve():
    tracer = load_bench("tracer")
    for names in (tracer.SPANNED, tracer.COUNTED):
        for short, attrs in names.items():
            mod = importlib.import_module("siggb." + short)
            for attr in attrs:
                if "." in attr:
                    # the tracer reads methods from the class __dict__
                    cls_name, meth = attr.split(".")
                    target = vars(getattr(mod, cls_name)).get(meth)
                else:
                    target = getattr(mod, attr, None)
                assert callable(target), f"siggb.{short}.{attr}"


def test_tracer_records_the_reduction_layers(golden_gens):
    tracer = load_bench("tracer")
    before = dict(vars(siggb.polyring))
    sub_mul = vars(siggb.Polynomial)["sub_mul"]
    t = tracer.Tracer()
    t.install()
    try:
        state, _ = siggb.incremental_basis(golden_gens)
        siggb.interreduce(state)
        siggb.buchberger_basis(golden_gens)
    finally:
        t.uninstall()
    calls, _, _, counts = t.summary()
    for name in ("polyring.sub_mul", "polyring.spol", "polyring.reduce_full",
                 "polyring.reduced_basis", "f5engine.top_reduction_signed"):
        assert calls.get(name, 0) > 0, name
    assert counts["polyring.sub_mul.terms"] > 0
    assert counts["polyring.exp_divides.f5engine"] > 0
    # uninstall put every original back
    assert dict(vars(siggb.polyring)) == before
    assert vars(siggb.Polynomial)["sub_mul"] is sub_mul


def test_worker_outputs_serialise(monkeypatch):
    """The worker's run_system and Outcome.lines, on the certified cyclic-4
    system, read what the benchmark needs of siggb: the engine options,
    pair and rejection events with their witnesses, polynomial terms as
    exponent tuples, signatures and certificates.  Every record they yield
    must be JSON."""
    import json

    # worker.py imports its sibling as ``workloads`` and puts src/ on sys.path
    workloads = load_bench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = load_bench("worker")

    system = next(s for s in workloads.systems("cyclic5-gf", workloads.PRIMES[0])
                  if s.certify)
    assert system.name == "cyclic-4"
    gens = workloads.build(system, siggb.cli, siggb.corpus)
    outcome = worker.run_system(system, gens)
    assert outcome.error is None, outcome.error
    records = [json.loads(json.dumps(obj)) for obj in outcome.lines()]
    head = records[0]
    assert head["certificates"] == head["rejections"] > 0
    stats = outcome.state.stats
    # the PairCreated events: every pair made, less the signature collisions
    assert head["scan"]["pairs"] == stats.pairs_created - stats.signature_collisions > 0
    elements = [r["element"] for r in records if "element" in r]
    certs = [r["cert"] for r in records if "cert" in r]
    assert len(elements) == outcome.state.size and len(certs) == head["certificates"]
    nvars = gens[0].ring.nvars
    gamma, index, terms = elements[0]
    assert len(gamma) == nvars and index == 1
    assert all(len(e) == nvars for e, _ in terms)
    assert {c["kind"] for c in certs} == {"f5crit", "rewrite"}
    assert all(len(c["u"]) == nvars and c["vector"] for c in certs)
