"""Per-layer metrics of a traced phase, from the spans of every process.

Times and counts are per op (one ``Session.run``, one ``Session.map``
batch, or one HTTP request) unless the unit says otherwise, averaged over
the ops of the traced phase; spans count when they start inside it.

Self time rows (``<layer>.self_ms``) come from the process that owns the
op's wall time: the benchmark process for the closed loops, the server
process for ``serve-mixed`` (plus its queue wait).  They and
``unattributed.self_ms`` sum to ``op.wall_ms``.  Pool workers run in
parallel with the op, so their spans feed the work metrics but not the
rows.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from spans import LAYERS, load_spans, self_times

#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("unattributed.self_ms", "ms"), ("op.wall_ms", "ms"),
       ("core.runner.fingerprint_ms", "ms"),
       ("core.runner.cache_get_ms", "ms"),
       ("core.runner.cache_hit_ratio", "ratio"),
       ("compiler.compile_ms", "ms"), ("compiler.compiles", "count/op"),
       ("compiler.mmh_ops", "count/op"), ("sparse.symbolic.ms", "ms"),
       ("analysis.verify_ms", "ms"), ("analysis.verify_runs", "count/op"),
       ("sparse.kernels.ms", "ms"),
       ("sparse.kernels.partial_products", "count/op"),
       ("sparse.kernels.mbytes", "MB/op"),
       ("backends.analytic.predict_ms", "ms"),
       ("sim.functional.ms", "ms"), ("sim.functional.haccs", "count/op"),
       ("sim.cycle.ms", "ms"), ("sim.cycle.events", "count/op"),
       ("sim.cycle.us_per_event", "us"),
       ("sim.cycle.kcycles_per_s", "kcycle/s"),
       ("sim.cycles", "cycles/op"), ("sim.stall_cycles", "cycles/op"),
       ("sim.core_utilization", "ratio"), ("sim.mem_utilization", "ratio"),
       ("sim.evictions", "count/op"),
       ("core.executors.dispatch_ms", "ms/job"),
       ("core.executors.reply_kib", "KiB/job"),
       ("core.executors.worker_cache_hit_ratio", "ratio"),
       ("gnn.pipeline.ms", "ms"), ("gnn.adjacency_hit_ratio", "ratio"),
       ("serve.wire.decode_ms", "ms"), ("serve.wire.encode_ms", "ms"),
       ("serve.registry.resolve_ms", "ms"), ("serve.queue.wait_ms", "ms"),
       ("serve.batcher.batch_size", "count"),
       ("serve.batcher.coalesced", "count/op"),
       ("serve.batcher.exec_ms", "ms"), ("serve.http.overhead_ms", "ms"),
       ("serve.http.bytes_out_per_req", "B"), ("datasets.gen_s", "s")])

#: End-to-end metrics whose tracing overhead is reported.
OVERHEAD_UNITS = {"setup_s": "s", "ops_per_s": "op/s",
                  "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                  "peak_rss_mib": "MiB"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: dict, workload) -> dict:
    """``{metric: {"value", "unit"}}`` for every per-layer metric."""
    phase = run["phase"]
    trace_dir = Path(run["trace_dir"])
    start, end = run["window"]
    spans = [s for s in load_spans(trace_dir)
             if s["end"] is not None and start <= s["start"] <= end]
    ops = max(1, phase.attempted)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())) \
            * 1e3 / ops

    def count(name: str, key: str) -> float:
        return sum(s.get("counts", {}).get(key, 0)
                   for s in by_name.get(name, ()))

    def mean(name: str, key: str) -> float:
        found = by_name.get(name, ())
        return _ratio(count(name, key), len(found))

    values: dict[str, float] = {}
    serving = workload.name == "serve-mixed"
    server_pids = {s["pid"] for s in spans if s["name"] != "op"}
    owner_pids = server_pids if serving else {os.getpid()}
    rows = self_times([s for s in spans if s["pid"] in owner_pids])
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = rows.get(layer, 0.0) * 1e3 / ops
    wall_ms = sum(phase.latencies_s) * 1e3 / max(1, len(phase.latencies_s))
    batches = by_name.get("queue.get_batch", ())
    served = count("queue.get_batch", "batch_size")
    wait_ms = _ratio(count("queue.get_batch", "wait_s") * 1e3, served)
    if serving:
        values["serve.queue.self_ms"] = wait_ms
    values["op.wall_ms"] = wall_ms
    values["unattributed.self_ms"] = wall_ms - sum(
        values[f"{layer}.self_ms"] for layer in LAYERS)

    values["core.runner.fingerprint_ms"] = ms("runner.fingerprint")
    values["core.runner.cache_get_ms"] = ms("runner.cache_get")
    values["core.runner.cache_hit_ratio"] = mean("runner.cache_get", "hit")
    values["compiler.compile_ms"] = ms("compiler.compile")
    values["compiler.compiles"] = len(by_name.get("compiler.compile", ())) \
        / ops
    values["compiler.mmh_ops"] = count("compiler.compile", "mmh_ops") / ops
    values["sparse.symbolic.ms"] = ms("symbolic.spgemm")
    values["analysis.verify_ms"] = ms("verifier.verify")
    values["analysis.verify_runs"] = len(by_name.get("verifier.verify", ())) \
        / ops
    values["sparse.kernels.ms"] = ms("kernels.spgemm")
    values["sparse.kernels.partial_products"] = \
        count("kernels.spgemm", "partial_products") / ops
    values["sparse.kernels.mbytes"] = count("kernels.spgemm", "bytes") \
        / 1e6 / ops
    values["backends.analytic.predict_ms"] = ms("analytic.predict")
    values["sim.functional.ms"] = ms("functional.run")
    values["sim.functional.haccs"] = count("functional.run", "haccs") / ops
    cycle_ms = ms("cycle.run")
    events = count("cycle.run", "events")
    values["sim.cycle.ms"] = cycle_ms
    values["sim.cycle.events"] = events / ops
    values["sim.cycle.us_per_event"] = _ratio(cycle_ms * ops * 1e3, events)
    values["sim.cycle.kcycles_per_s"] = _ratio(
        count("cycle.run", "cycles"), cycle_ms * ops)
    values["sim.cycles"] = count("cycle.run", "cycles") / ops
    values["sim.stall_cycles"] = count("cycle.run", "stall_cycles") / ops
    values["sim.core_utilization"] = mean("cycle.run", "core_utilization")
    values["sim.mem_utilization"] = mean("cycle.run", "mem_utilization")
    values["sim.evictions"] = count("cycle.run", "evictions") / ops

    jobs = count("executors.map", "jobs")
    workers = run.get("workers", 1)
    values["core.executors.dispatch_ms"] = _ratio(
        ms("executors.map") * ops * workers
        - count("executors.map", "worker_wall_s") * 1e3, jobs)
    values["core.executors.reply_kib"] = _ratio(
        count("executors.map", "reply_bytes") / 1024.0, jobs)
    values["core.executors.worker_cache_hit_ratio"] = _ratio(
        count("executors.map", "worker_hits"), jobs)

    values["gnn.pipeline.ms"] = ms("gnn.run_model")
    summary_path = trace_dir / "server-summary.json"
    adjacency = (json.loads(summary_path.read_text())["adjacency_cache"]
                 if summary_path.is_file() else {})
    values["gnn.adjacency_hit_ratio"] = _ratio(
        adjacency.get("hits", 0),
        adjacency.get("hits", 0) + adjacency.get("misses", 0))

    values["serve.wire.decode_ms"] = ms("wire.decode")
    values["serve.wire.encode_ms"] = ms("wire.encode")
    values["serve.registry.resolve_ms"] = ms("registry.resolve")
    values["serve.queue.wait_ms"] = wait_ms
    values["serve.batcher.batch_size"] = _ratio(
        served, sum(1 for s in batches if s.get("counts", {})
                    .get("batch_size")))
    # Batch execution as each request saw it: its batch's Session.map.
    sizes = {(s["pid"], f"batch{s['id']}"): s.get("counts", {})
             .get("batch_size", 0) for s in batches}
    exec_weighted = sum((s["end"] - s["start"]) * sizes.get(
        (s["pid"], s["op"]), 0) for s in by_name.get("session.map", ())
        if s["pid"] in server_pids)
    exec_ms = _ratio(exec_weighted * 1e3, served)
    values["serve.batcher.exec_ms"] = exec_ms if serving else 0.0
    delta = phase.extra.get("server_delta", {})
    values["serve.batcher.coalesced"] = _ratio(delta.get("coalesced", 0),
                                               phase.attempted)
    values["serve.http.overhead_ms"] = (wall_ms - wait_ms - exec_ms
                                        if serving else 0.0)
    values["serve.http.bytes_out_per_req"] = _ratio(delta.get("bytes_out", 0),
                                                    phase.attempted)
    values["datasets.gen_s"] = run["gen_s"][-1]
    units = dict(PER_LAYER)
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name, _ in PER_LAYER}


def overhead_metrics(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced, for each end-to-end metric."""
    return {f"trace_overhead.{name}": {
        "value": float(traced.get(name, 0.0) - untraced.get(name, 0.0)),
        "unit": unit} for name, unit in OVERHEAD_UNITS.items()}
