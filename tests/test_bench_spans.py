import importlib.util
import json
from pathlib import Path

import joinreach

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_per_layer_spans_are_traced():
    # A per-layer metric whose callable is renamed or deleted would only
    # fail the traced benchmark run; check its span name here instead.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        names = set(tracer.names)
    finally:
        tracer.uninstall()
    # uninstall put the library's own functions back
    assert not hasattr(joinreach.explicit.build_two_paths, "__wrapped__")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = [
        m["name"].rsplit(".", 1)[0]
        for m in spec["per_layer"]
        if m["name"].endswith((".self_s", ".calls"))
    ]
    assert spans
    missing = sorted(set(spans) - names)
    assert not missing, f"BENCHMARK.json per_layer spans with no traced callable: {missing}"
