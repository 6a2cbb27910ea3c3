"""The mutation checks of ``scripts/mutants.py`` still point at the code:
every anchor occurs exactly once in ``src/``, in the mutant's own file, and
every test named to kill a mutant exists.  The mutants themselves run
outside this suite (``python scripts/mutants.py``)."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_mutant_anchors_occur_once():
    mutants = _load_mutants()
    sources = mutants.source_files()
    assert mutants.MUTANTS
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.edits and m.tests, m.name
        for anchor, total, here in mutants.anchor_counts(m, sources):
            assert (total, here) == (1, 1), (m.name, anchor)
        for node in m.tests:
            path, name = node.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert f"\ndef {name}(" in fh.read(), (m.name, node)
