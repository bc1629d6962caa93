"""Every name the benchmark's tracer wraps, and every exported name, resolves.

`perfbench/tracing.py` fetches its entry points by name when a traced run
starts.  A deleted or renamed entry point would otherwise surface only in a
traced benchmark run; here it fails the test suite.  Nothing is patched: the
lookups are the ones `Tracer.install` makes, done read-only.
"""

import importlib
import importlib.util
from pathlib import Path

import matroid_forge

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_resolves():
    tracing = load_tracing()
    missing = []
    for module, attrs in tracing.TRACED.items():
        mod = importlib.import_module(f"matroid_forge.{module}")
        for attr in attrs:
            cls_name, _, fname = attr.rpartition(".")
            if cls_name:
                owners = [getattr(mod, cls_name, None)]
            elif module == "finitary" and fname != "removal_witness":
                owners = [getattr(mod, cls, None) for cls in tracing.SCHEMA_CLASSES]
            else:
                if not callable(getattr(mod, fname, None)):
                    missing.append(f"{module}.{attr}")
                continue
            # `install` reads methods from the class's own namespace
            if any(owner is None or fname not in vars(owner) for owner in owners):
                missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_export_resolves():
    assert [name for name in matroid_forge.__all__ if not hasattr(matroid_forge, name)] == []
