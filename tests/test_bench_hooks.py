"""The benchmark's tracer finds every function and property it wraps.

``bench/tracing.py`` looks msdoa's layers up by name; a rename that it
does not follow would only break the traced benchmark run. The module
is loaded from its file and only read: nothing is wrapped here.
"""

import importlib
import importlib.util
from pathlib import Path

from msdoa.surface import HarmonicMatrix

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps names msdoa no longer has: {missing}"
    for attr in tracing.SVD_PROPERTIES:
        assert isinstance(vars(HarmonicMatrix).get(attr), property), attr
