import importlib.util
import json
import random
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


class StubRunner:
    """The part of perfbench's Runner that `run.check_kinds` uses."""

    def __init__(self, workload):
        self.workload = workload
        self.failures = []

    def fail(self, message):
        self.failures.append(message)


def test_bench_index_items_reach_only_their_kinds_report_spans(monkeypatch):
    # An index whose structure choice moves a benchmark item's queries to a
    # report structure its KIND_REPORTS kind does not list would only fail
    # the traced benchmark run; build and query each item here instead.
    # The indexes are built before the tracer is installed, so an index
    # that binds its report methods at build time shows no report spans.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import workloads

    built = []
    for w in workloads.WORKLOADS.values():
        for item in w.items:
            if item.op != "index":
                continue
            seeded = f"{w.name}/1/{item.name}"
            g1, g2 = item.make(random.Random(seeded))
            qs = range(g1.n)
            if item.sample is not None:
                qs = random.Random(f"{seeded}/queries").sample(qs, item.sample)
            built.append((item.name, getattr(joinreach, item.call)(g1, g2), qs))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name, idx, qs in built:
            for b in qs:
                tracer.call(f"op.query.{name}", idx.query_counted, b)
    finally:
        tracer.uninstall()
    for w in workloads.WORKLOADS.values():
        runner = StubRunner(w)
        run.check_kinds(runner, tracer)
        assert not runner.failures, (w.name, runner.failures)
