"""The benchmark under perfbench/ reaches into the package by name; these
tests fail here, in the unit suite, when a name it binds goes away."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    tracing = load_tracing()
    assert set(tracing.TRACED) <= set(tracing.MODULES)
    for home, names in tracing.TRACED.items():
        module = importlib.import_module(f"fttpde.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fttpde.{home}.{name}"
