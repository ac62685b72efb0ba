"""The benchmark tracer rebinds functions by module attribute; every one of
its sites must still resolve, or traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_sites_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = []
    for module_name, attr, _, _ in tracer.SITES:
        module = importlib.import_module(f"cascadekit.{module_name}")
        if not callable(getattr(module, attr, None)):
            unbound.append(f"cascadekit.{module_name}.{attr}")
    assert unbound == []
    features = importlib.import_module("cascadekit.features")
    assert callable(getattr(features, "ThreadPoolExecutor", None))
