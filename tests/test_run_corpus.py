"""Smoke test of scripts/run_corpus.py: its ``main()``, run in-process on a
three-ideal corpus (plus cyclic-4 and katsura-4), with and without
certificates, exits 0 and reports no oracle mismatch, no unsound rejection
and no clause-(b) firing of the relaxed criterion."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("flags", [[], ["--certify"]], ids=["plain", "certify"])
def test_run_corpus_main(monkeypatch, capsys, flags):
    path = os.path.join(ROOT, "scripts", "run_corpus.py")
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_corpus.py", "--count", "3", *flags])
    assert script.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert "systems: 5" in out
    for name in ("oracle mismatches", "unsound rejections",
                 "improved-criterion part(b) firings"):
        assert f"{name}: 0" in out
