"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload analytic-warm --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` splits the
time into an untraced half and a traced half: the traced half wraps every
layer's public callables (``spans.py``) and reports per-layer self time,
work counts and the tracing overhead (traced minus untraced).  Every
output is checked against an independent reference (``oracle.py``); a
mismatch makes the command exit 1.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details (raw
samples, environment, failures) go to ``perfbench/out/``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("analytic-warm", "sim-cycle", "fanout-process", "serve-mixed")
#: Set-ups per measured phase; setup_s is their median.
SETUP_REPEATS = 3
#: (name, unit) of every end-to-end metric in the final JSON line.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mib", "MiB"))
#: Workload-specific end-to-end figures, printed and written to the
#: results file (their value is not defined on every workload).
EXTRA_UNITS = {"error_frac": "ratio", "slo_ok_frac": "ratio",
               "sim_events_per_s": "event/s",
               "sim_kcycles_per_s": "kcycle/s", "sim_cycles": "cycles",
               "peak_child_rss_mib": "MiB", "gen_lag_p50_ms": "ms",
               "gen_lag_max_ms": "ms", "cpu_steal_frac": "ratio"}


def import_repro() -> float:
    """Put this checkout's ``src/`` first on the path and import ``repro``
    from it; returns the import time.  Refuses to run against any other
    copy of the package."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}; run from a "
                         "full checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not {src}")
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "source_sha1": digest.hexdigest(), "seed": seed,
            "platform": platform.platform()}


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from ``/proc/stat`` (steal is field 8)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests: a run with
    a high value measured a slower machine."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def make_workload(name: str, profile):
    from serve import ServeMixed
    from workloads import CLOSED_LOOP

    if name == "serve-mixed":
        return ServeMixed(profile, ROOT)
    return CLOSED_LOOP[name](profile)


def measure(workload, seed: int, seconds: float, repeats: int,
            trace_dir: Path | None) -> dict:
    """Set up ``repeats`` times (keeping the last), then run one timed
    phase of ``seconds``; traced when ``trace_dir`` is given."""
    from inputs import InputMaker
    from spans import Tracer

    tracer = None
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        tracer = Tracer(trace_dir).install()
    setup_s, gen_s = [], []
    fixture = None
    try:
        for k in range(repeats):
            maker = InputMaker(seed)
            start = time.perf_counter()
            if workload.name == "serve-mixed":
                fixture = workload.setup(maker, seconds, trace_dir)
            else:
                fixture = workload.setup(maker)
            setup_s.append(time.perf_counter() - start)
            gen_s.append(maker.gen_s)
            if k < repeats - 1:
                workload.close(fixture)
                fixture = None
        workload.prepare_oracle(fixture)
        window = [time.perf_counter(), None]
        cpu_before = cpu_times()
        phase = workload.run(fixture, seconds, tracer)
        window[1] = time.perf_counter()
        phase.extra["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())
    finally:
        if fixture is not None:
            workload.close(fixture)
        if tracer is not None:
            tracer.dump()
            tracer.uninstall()
    return {"phase": phase, "setup_samples_s": setup_s, "gen_s": gen_s,
            "window": window, "trace_dir": trace_dir,
            "workers": len(os.sched_getaffinity(0)),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "peak_child_rss_mib": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def end_to_end(run: dict, import_s: float, tail_cap: float) -> dict:
    """Every end-to-end figure of one measured phase."""
    from stats import latency_summary

    phase = run["phase"]
    values = {"setup_s": import_s + statistics.median(run["setup_samples_s"]),
              "ops_per_s": (len(phase.latencies_s) / phase.wall_s
                            if phase.wall_s else 0.0),
              "peak_rss_mib": run["peak_rss_mib"],
              "peak_child_rss_mib": run["peak_child_rss_mib"],
              "error_frac": (phase.failed / phase.attempted
                             if phase.attempted else 1.0)}
    if phase.latencies_s:
        values.update(latency_summary(phase.latencies_s, tail_cap))
    values.update(phase.extra)
    return values


def print_table(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(f"== {title}")
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14}  {unit}")


def main(argv=None, profile=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_repro()
    from inputs import FULL
    from layers import layer_metrics, overhead_metrics

    workload = make_workload(args.workload, profile or FULL)
    env = environment(args.seed)
    env["loadavg_before"] = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        half = args.seconds / 2.0
        runs = [measure(workload, args.seed, half, SETUP_REPEATS, None),
                measure(workload, args.seed, half, 1, OUT / f"spans-{tag}")]
    else:
        runs = [measure(workload, args.seed, args.seconds, SETUP_REPEATS,
                        None)]
    e2e = [end_to_end(run, import_s, workload.tail_cap) for run in runs]
    phases = [run["phase"] for run in runs]
    mismatches = [m for p in phases for m in p.mismatches]
    cross = []
    if args.trace:
        # Simulated statistics must not depend on tracing.
        for key in ("sim_cycles", "sim_counters"):
            if e2e[0].get(key) != e2e[1].get(key):
                cross.append(f"{key} differs between the untraced and "
                             f"traced runs: {e2e[0].get(key)} vs "
                             f"{e2e[1].get(key)}")
    mismatches += cross
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(cross)
    env["loadavg_after"] = os.getloadavg()
    result.update(environment=env, end_to_end=e2e,
                  samples={"latency_ms": [[x * 1e3 for x in p.latencies_s]
                                          for p in phases],
                           "setup_s": [r["setup_samples_s"] for r in runs],
                           "datasets_gen_s": [r["gen_s"] for r in runs]},
                  failures=[e for p in phases for e in p.errors] + cross)

    completed = all(p.latencies_s for p in phases)
    halves = ("untraced half", "traced half") if args.trace else ("",)
    for values, half in zip(e2e, halves):
        rows = [(name, values[name], unit) for name, unit in END_TO_END
                if name in values]
        if "tail_percentile" in values:
            rows.append(("latency_tail_percentile", values["tail_percentile"],
                         f"pct of {values['samples']} samples"))
        rows += [(name, values[name], unit)
                 for name, unit in EXTRA_UNITS.items() if name in values]
        print_table(f"{args.workload} end to end {half}".rstrip(), rows)
    if args.trace and completed:
        per_layer = layer_metrics(runs[1], workload)
        per_layer.update(overhead_metrics(e2e[0], e2e[1]))
        result["per_layer"] = per_layer
        print_table(f"{args.workload} per layer (traced half)",
                    [(k, v["value"], v["unit"])
                     for k, v in per_layer.items()])
        metrics = per_layer
    else:
        metrics = {name: {"value": e2e[0][name], "unit": unit}
                   for name, unit in END_TO_END if name in e2e[0]}
    for message in mismatches[:10]:
        print(f"MISMATCH {message}", file=sys.stderr)
    if not completed:
        print("error: a phase completed no op", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1,
                                                default=str))
    correct = not mismatches and completed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
