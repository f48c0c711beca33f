"""The benchmark's traced run wraps named functions of the package.

A deleted or renamed function would crash ``bench/run.py --trace 1``; this
keeps every traced name resolving.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import TRACED

    missing = [
        f"cohsmix.{module}.{name}" for module, name in TRACED
        if not callable(getattr(importlib.import_module(f"cohsmix.{module}"),
                                name, None))
    ]
    assert TRACED and not missing, missing
