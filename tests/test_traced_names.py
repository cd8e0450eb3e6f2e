"""The sqfr names the benchmark reaches for by name all exist.

perfbench's tracer wraps each function that ``perfbench/tracing.py`` lists
in ``TRACED``, looked up by module and name, and its worker records
``sqfr.kernels.BACKEND``. A refactor that drops or renames one fails here,
not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_perfbench_pins_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"sqfr.{module}.{function}"
        for module, function, *_ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"sqfr.{module}"), function, None))
    ]
    assert tracing.TRACED
    assert missing == []
    assert isinstance(importlib.import_module("sqfr.kernels").BACKEND, str)
