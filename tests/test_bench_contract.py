"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` patches each name in its ``TRACED`` table by attribute
lookup, so a renamed or deleted library function would otherwise only fail
a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing, no_post_init = [], []
    for layer, names in tracer.TRACED.items():
        for name in names:
            obj = getattr(importlib.import_module(f"bellrand.{layer}"), name, None)
            if obj is None:
                missing.append(f"{layer}.{name}")
            elif isinstance(obj, type) and "__post_init__" not in vars(obj):
                no_post_init.append(f"{layer}.{name}")
    assert missing == [], "traced names missing from bellrand"
    assert no_post_init == [], "traced classes without their own __post_init__"
