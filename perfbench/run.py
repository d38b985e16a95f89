#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload index-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a joinreach checkout: the library is imported
from ``src/``. The inputs are made from the seed. Timed rounds over the
workload's items repeat, one caller and one thread in a closed loop,
until the time is up. Every op is checked against a closure-AND oracle
outside the timed region. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The end-to-end times are scaled towards a
nominal host speed by a reference loop timed in the same run (see
reference.py). A traced run spends half its time untraced and
half with the library's public callables wrapped, and writes its spans
and full per-callable table to perfbench/out/.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from oracle import ancestor_rows, bit_list
from reference import NOMINAL_S, host_scale, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3  # before the first round; one more follows every round
QUERY_BLOCK = 64  # queries timed together as one op of a sweep

# Op phases, by the end-to-end metric that sums them.
BUILD_PHASES = ("build", "minimal", "index")
READ_PHASES = ("write", "read", "verify", "query")


def load_library():
    src = ROOT / "src"
    if not (src / "joinreach" / "__init__.py").is_file():
        sys.exit(f"perfbench: no joinreach package under {src}")
    sys.path.insert(0, str(src))
    import joinreach

    return joinreach


def _plain_call(_name, fn, *args):
    return fn(*args)


class Runner:
    """Timed rounds over one workload's items, with every op checked."""

    def __init__(self, jr, workload, seed):
        self.jr = jr
        self.workload = workload
        self.seed = seed
        self.inputs = None  # item name -> (g1, g2)
        self.setup_s = []
        self.reference_s = []  # the host-speed reference, timed before each set-up
        for _ in range(SETUP_REPEATS):
            self.setup()
        self.queries = {}  # item name -> query vertices
        for item in workload.items:
            if item.op != "index":
                continue
            n = self.inputs[item.name][0].n
            if item.sample is None:
                self.queries[item.name] = list(range(n))
            else:
                rng = self._rng(item, "queries")
                self.queries[item.name] = sorted(rng.sample(range(n), item.sample))
        self.call = _plain_call  # a Tracer's call in traced rounds
        # (phase, op label) -> the op's fastest round in seconds; a
        # sweep's label also names its block of QUERY_BLOCK queries.
        self.times = {}
        self.round_s = []  # timed seconds of each round
        # item name -> each query's fastest time in seconds. Fixed in size,
        # so the run's peak RSS does not grow with the number of rounds.
        self.latencies = {
            name: array.array("d", [math.inf]) * len(qs) for name, qs in self.queries.items()
        }
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        # First-round outputs and how many rounds repeated them, checked
        # against the oracle after the timed rounds; outputs that differ
        # from the first round's are kept for the same check. The key is
        # the query vertex, or None for a minimal join.
        self.refs = defaultdict(dict)  # item name -> {key: [output, rounds]}
        self.odd = []  # (item, key, output)
        self.counts = defaultdict(int)  # from first-round return values
        self.rounds = 0
        self._round_total = 0.0
        self._ops = {"explicit": self.explicit, "minimal": self.minimal, "index": self.index}

    def _rng(self, item, *extra):
        return random.Random("/".join(map(str, (self.workload.name, self.seed, item.name) + extra)))

    def setup(self):
        """Generate and normalise the inputs again, timed. The seed fixes
        them, so each repeat replaces the inputs with identical ones.
        The host-speed reference runs first, while no inputs are held."""
        self.inputs = None
        self.reference_s.append(reference_s())
        gc.collect()
        t0 = time.perf_counter()
        self.inputs = {item.name: item.make(self._rng(item)) for item in self.workload.items}
        self.setup_s.append(time.perf_counter() - t0)

    def keep(self, item, key, out):
        ref = self.refs[item.name].get(key)
        if ref is None:
            self.refs[item.name][key] = [out, 1]
        elif out == ref[0]:
            ref[1] += 1
        else:
            self.odd.append((item, key, out))

    def fastest(self, key, dt):
        if dt < self.times.get(key, math.inf):
            self.times[key] = dt

    def fail(self, message, times=1):
        self.failed += times
        if self.first_failure is None:
            self.first_failure = message

    def op(self, phase, item, fn, *args):
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.call(f"op.{phase}.{item.name}", fn, *args)
        except Exception:
            self.fail(f"{phase} {item.name} raised:\n{traceback.format_exc()}")
            return False, None
        dt = time.perf_counter() - t0
        self.fastest((phase, item.name), dt)
        self._round_total += dt
        return True, out

    def explicit(self, item, g1, g2):
        ok, jg = self.op("build", item, getattr(self.jr, item.call), g1, g2)
        if not ok:
            return
        if self.rounds == 0:
            self.counts["explicit.steiner_count"] += jg.steiner_count
            self.counts["explicit.arcs"] += jg.graph.m
            self.counts["explicit.n_original"] += jg.n_original
            self.counts["explicit.join_size"] += jg.size
        path = str(OUT / f"{self.workload.name}-{item.name}.jg")
        ok, _ = self.op("write", item, self.jr.write_join, jg, path)
        if not ok:
            return
        ok, back = self.op("read", item, self.jr.read_join, path)
        if not ok:
            return
        if (back.n_original, back.graph.n, back.graph.arcs, back.steiner_tags) != (
            jg.n_original, jg.graph.n, jg.graph.arcs, jg.steiner_tags
        ):
            self.fail(f"read_join {item.name}: the join graph read back differs from the one written")
        ok, report = self.op("verify", item, self.jr.verify_join_graph, back, g1, g2)
        if ok and not report.ok:
            self.fail(f"{item.call} {item.name}: closure-AND oracle violated at {report.first_violation}")

    def minimal(self, item, g1, g2):
        ok, m = self.op("minimal", item, getattr(self.jr, item.call), g1, g2)
        if ok:
            self.keep(item, None, (m.n, m.arcs))

    def index(self, item, g1, g2):
        ok, idx = self.op("index", item, getattr(self.jr, item.call), g1, g2)
        if not ok:
            return
        gc.collect()
        query, name, call = idx.query_counted, f"op.query.{item.name}", self.call
        clock, lat = time.perf_counter, self.latencies[item.name]
        qs = self.queries[item.name]
        probes = outputs = pairs = 0
        for start in range(0, len(qs), QUERY_BLOCK):
            block = 0.0
            for i in range(start, min(start + QUERY_BLOCK, len(qs))):
                b = qs[i]
                self.attempted += 1
                t0 = clock()
                try:
                    ans, pr, touched = call(name, query, b)
                except Exception:
                    self.fail(f"query {b} on {item.name} raised:\n{traceback.format_exc()}")
                    continue
                dt = clock() - t0
                block += dt
                if dt < lat[i]:
                    lat[i] = dt
                self.keep(item, b, array.array("i", ans))
                probes += pr
                outputs += len(ans)
                pairs += len(touched)
            self.fastest(("query", f"{item.name}#{start}"), block)
            self._round_total += block
        if self.rounds == 0:
            self.counts["jrindex.queries"] += len(self.queries[item.name])
            self.counts["jrindex.pairs"] += pairs
            self.counts[f"jrindex.probes.{item.kind}"] += probes
            self.counts[f"jrindex.outputs.{item.kind}"] += outputs

    def round(self):
        self._round_total = 0.0
        for item in self.workload.items:
            g1, g2 = self.inputs[item.name]
            self._ops[item.op](item, g1, g2)
        self.round_s.append(self._round_total)
        self.rounds += 1

    def run_for(self, seconds):
        """Whole rounds, each followed by a timed set-up, until another
        would overrun ``seconds``; at least one."""
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            self.round()
            self.setup()
            now = time.perf_counter()
            if now - start + (now - r0) > seconds:
                return

    def check(self):
        """Compare every kept output with the closure-AND oracle."""
        for item in self.workload.items:
            if item.op == "explicit":
                continue  # verified inside the rounds
            g1, g2 = self.inputs[item.name]
            a1, a2 = ancestor_rows(g1.n, g1.arcs), ancestor_rows(g2.n, g2.arcs)
            kept = [(key, out, n) for key, (out, n) in self.refs[item.name].items()]
            kept += [(key, out, 1) for it, key, out in self.odd if it is item]
            for key, out, n in kept:
                if key is None:
                    try:
                        ok = ancestor_rows(*out) == [x & y for x, y in zip(a1, a2)]
                    except ValueError:  # a cycle in the output
                        ok = False
                    what = f"minimal_restricted_join {item.name}: closure"
                else:
                    ok = out == array.array("i", bit_list(a1[key] & a2[key] | 1 << key))
                    what = f"query {key} on {item.name}: answer"
                if not ok:
                    self.fail(f"{what} differs from the closure-AND oracle", n)

    def phase_s(self, phases):
        """Sum over the ops in the given phases of each op's fastest round.

        Interference from other tenants of a shared host only ever adds
        time, and a fixed loop's 10-second medians drift by a quarter
        while its minima hold, so the fastest round is the steady figure.
        Set-up time and query latencies take their fastest repeat too.
        """
        return sum(t for (ph, _), t in self.times.items() if ph in phases)


def end_to_end(runner, peak_rss_mb):
    """The gated metrics, with times scaled towards the nominal host speed
    by reference.host_scale."""
    scale = host_scale(min(runner.reference_s))
    return {
        "setup_s": min(runner.setup_s) * scale,
        "build_s": runner.phase_s(BUILD_PHASES) * scale,
        "read_s": runner.phase_s(READ_PHASES) * scale,
        "peak_rss_mb": peak_rss_mb,
    }


def summary(runner):
    """The finer per-phase figures of the workload, printed for readers.
    Times here are as measured, not scaled."""
    ops = {item.op for item in runner.workload.items}
    rows = [
        ("setup_s", min(runner.setup_s), "s"),
        ("build_s", runner.phase_s(BUILD_PHASES), "s"),
        ("read_s", runner.phase_s(READ_PHASES), "s"),
        ("reference_s", min(runner.reference_s), f"s (nominal {NOMINAL_S})"),
    ]
    if "explicit" in ops:
        rows += [
            ("explicit_build_s", runner.phase_s(("build",)), "s"),
            ("join_io_s", runner.phase_s(("write", "read")), "s"),
            ("verify_s", runner.phase_s(("verify",)), "s"),
            ("join_size", runner.counts["explicit.join_size"], "count"),
        ]
    if "minimal" in ops:
        rows.append(("minimal_s", runner.phase_s(("minimal",)), "s"))
    lat = [t for times in runner.latencies.values() for t in times if t < math.inf]
    if "index" in ops and len(lat) >= 2:
        rows.append(("index_build_s", runner.phase_s(("index",)), "s"))
        cuts = statistics.quantiles(lat, n=100)
        rows += [
            ("query_p50_us", statistics.median(lat) * 1e6, f"us, fastest of each of {len(lat)} queries"),
            ("query_p99_us", cuts[98] * 1e6, f"us, fastest of each of {len(lat)} queries"),
            ("queries_per_s", len(lat) / sum(lat), "1/s"),
        ]
    rows.append(("fail_share", runner.failed / max(runner.attempted, 1),
                 f"ratio of {runner.attempted} ops"))
    return rows


def check_kinds(runner, tracer):
    """Fail the run where an index item's traced queries reached a report
    span that its structure kind does not list in workloads.KIND_REPORTS.
    Report spans inside another report span (the Cartesian trees under an
    hpd report) count as part of the outer one."""
    from workloads import KIND_REPORTS

    watched = set().union(*KIND_REPORTS.values())
    span = {sid: (name, parent) for sid, name, _, _, parent, _ in tracer.spans}
    root = {op: name for _, name, _, _, parent, op in tracer.spans if parent == -1}
    seen = defaultdict(set)  # root span name -> outermost report spans under it
    for _, name, _, _, parent, op in tracer.spans:
        if name not in watched:
            continue
        while parent != -1 and span[parent][0] not in watched:
            parent = span[parent][1]
        if parent == -1:
            seen[root[op]].add(name)
    for item in runner.workload.items:
        if item.op != "index":
            continue
        got, want = seen[f"op.query.{item.name}"], KIND_REPORTS[item.kind]
        if not got or not got <= want:
            runner.fail(f"queries on {item.name} ran under {sorted(got)}, but their probe kind "
                        f"{item.kind!r} allows only {sorted(want)}: update the item's kind "
                        "in perfbench/workloads.py")


def per_layer(runner, tracer, untraced, traced):
    """Per-round self seconds and calls of every traced callable, plus counts."""
    from workloads import PROBE_KINDS

    k = len(traced)

    def per_round(total):
        return total // k if total % k == 0 else total / k

    table = {}
    for name in sorted(tracer.names):
        table[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / k
        table[f"{name}.calls"] = per_round(tracer.calls.get(name, 0))
    counts = runner.counts
    for key in ("explicit.steiner_count", "explicit.arcs", "explicit.n_original",
                "explicit.join_size", "jrindex.queries"):
        table[key] = counts[key]
    table["jrindex.pairs_per_query"] = counts["jrindex.pairs"] / max(counts["jrindex.queries"], 1)
    for kind in PROBE_KINDS:
        outputs = counts[f"jrindex.outputs.{kind}"]
        table[f"jrindex.outputs.{kind}"] = outputs
        table[f"jrindex.probes_per_out.{kind}"] = (
            counts[f"jrindex.probes.{kind}"] / outputs if outputs else 0
        )
    table["cover.kappa"] = per_round(tracer.counts["cover.kappa"])
    table["trace.untraced_round_s"] = statistics.median(untraced)
    table["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    jr = load_library()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"

    runner = Runner(jr, workload, args.seed)
    tracer = None
    if args.trace:
        runner.run_for(args.seconds / 2)
        untraced = list(runner.round_s)
        tracer = Tracer()
        tracer.install()
        runner.call = tracer.call
        try:
            runner.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
            runner.call = _plain_call
        traced = runner.round_s[len(untraced):]
        check_kinds(runner, tracer)
    else:
        runner.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for item in workload.items:
        (OUT / f"{workload.name}-{item.name}.jg").unlink(missing_ok=True)
    runner.check()

    print(f"# {workload.name} seed {args.seed}: {runner.rounds} rounds, "
          f"{runner.attempted} ops, {runner.failed} failed")
    for name, value, unit in summary(runner):
        print(f"# {name} = {value!r} {unit}")
    if tracer is not None:
        table = per_layer(runner, tracer, untraced, traced)
        with open(OUT / f"layers-{tag}.json", "w", encoding="utf-8") as f:
            json.dump(table, f, indent=1, sort_keys=True)
        tracer.write(OUT / f"spans-{tag}.tsv.gz")
        print(f"# {len(tracer.spans)} spans written to {OUT.relative_to(ROOT)}/spans-{tag}.tsv.gz")
        print("# probes_per_out of the *_derived kinds is len(result) + 1, not counted work")
        wanted = spec["per_layer"]
    else:
        table = end_to_end(runner, peak_rss_mb)
        wanted = spec["end_to_end"]
    if runner.first_failure is not None:
        print(f"# first failure: {runner.first_failure}")
        print(f"perfbench: first failure: {runner.first_failure}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in table]
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json names unmeasured metrics: {', '.join(missing)}")
    metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
