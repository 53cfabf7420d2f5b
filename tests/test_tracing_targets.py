"""The benchmark's tracer wraps respectra functions by name; a rename in the
package must fail here, not only under ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for layer, module, attr, _hot in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{layer}: {module.__name__}.{attr}"
    for layer, cls, attr, _metric in tracing.METHODS:
        assert callable(getattr(cls, attr, None)), f"{layer}: {cls.__name__}.{attr}"
