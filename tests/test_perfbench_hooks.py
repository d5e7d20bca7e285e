"""The traced benchmark wraps library names; every one must still exist.

``perfbench/spans.py`` times each layer by replacing module and class
attributes by name.  A change that deletes or renames one of them would
otherwise surface only as a crash of a ``--trace 1`` run; here it fails the
suite.  The test reads ``perfbench/`` and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_restore(monkeypatch):
    spans = _load("spans", ROOT / "perfbench" / "spans.py")
    monkeypatch.setitem(sys.modules, "spans", spans)  # run.py imports it by name
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_library prepends src/
    run = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    lib = run.load_library(ROOT)
    tracer = spans.Tracer()
    try:
        tracer.install(lib)
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"
