"""The benchmark's tracer wraps pimsim functions by name: every one it names
must exist, or ``perfbench/run.py --trace 1`` fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves_in_pimsim():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, owner, attr in tracing.SPANS + tracing.COUNTS:
        module, _, cls = owner.partition(":")
        assert module == "pimsim" or module.startswith("pimsim.")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"traced but missing in pimsim: {missing}"
