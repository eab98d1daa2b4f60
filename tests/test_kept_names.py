"""Names other code depends on by name, guarded where tier-1 sees them.

`perfbench/tracing.py` wraps program functions and methods by name, so
deleting or renaming one breaks the benchmark's traced runs; and every
name `oscform.polyring` exports must resolve.
"""

import importlib.util
from pathlib import Path

import oscform.polyring
from oscform import exactla

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = exactla.rref
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert exactla.rref is not original
    finally:
        tracer.uninstall()
    assert exactla.rref is original


def test_polyring_exports_resolve():
    for name in oscform.polyring.__all__:
        assert hasattr(oscform.polyring, name), name
