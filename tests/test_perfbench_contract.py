"""The benchmark's per-layer trace (perfbench/tracer.py) wraps siggb's
functions by name.  A renamed or moved function would silently drop its layer
from the trace, so every name the tracer lists must still resolve here."""

import importlib
import importlib.util
import os

import siggb
import siggb.cli
import siggb.polyring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_and_counted_names_resolve():
    tracer = load_tracer()
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
    tracer = load_tracer()
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
