"""The benchmark's tracer wraps package functions by name; a rename or a
deletion in the package would make every traced benchmark run fail."""

import importlib.util
import os
from importlib import import_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_layer_resolves_in_the_package():
    path = os.path.join(ROOT, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [f"{module}.{func}" for module, func, _ in tracer.LAYERS
               if not callable(getattr(import_module(module), func, None))]
    assert missing == []
