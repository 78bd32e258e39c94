"""The benchmark's traced layers name functions the library still has."""

import importlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_every_traced_layer_resolves(monkeypatch):
    """A traced benchmark pass wraps each LAYERS entry by getattr on its
    quandlekit module, so a retired name would break --trace; workloads.py
    is loaded from its path as it stands."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.LAYERS
    for name, (module_name, attr, counter) in workloads.LAYERS.items():
        module = importlib.import_module(f"quandlekit.{module_name}")
        assert callable(getattr(module, attr, None)), name
        assert counter is None or callable(counter), name
