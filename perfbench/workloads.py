"""The three closed-loop workloads: one client, next op after the last.

Each workload builds a fixture in ``setup`` (inputs, session, warm
program cache), then ``run`` times ops until the phase's deadline and
checks every output with :mod:`oracle`.  Oracle time is measured and
left out of both the op latencies and the phase wall time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Session, SpGEMMSpec

import oracle
from inputs import InputMaker, Profile


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    #: Workload-specific end-to-end figures (sim speed, SLO, lag, ...).
    extra: dict = field(default_factory=dict)

    def fail(self, why: str, mismatch: bool = False) -> None:
        self.failed += 1
        self.errors.append(why)
        if mismatch:
            self.mismatches.append(why)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class ClosedLoop:
    """Shared timing loop; subclasses define ``setup`` and ``one_op``."""

    name = ""
    #: Cap on the tail percentile: beyond p90 a 20 s run's tail rests on
    #: a few dozen samples and swings with machine noise.
    tail_cap = 90.0

    def __init__(self, profile: Profile) -> None:
        self.profile = profile

    def close(self, fixture) -> None:
        session = fixture.get("session")
        if session is not None:
            session.close()

    def run(self, fixture, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        # Ops cycle through the inputs in one seeded order, so every run
        # of a seed does the same mix of work in the same sequence.
        rng = np.random.default_rng(fixture["seed"])
        order = rng.permutation(len(fixture["operands"]))
        check_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline:
            op = f"op{i}"
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op", "bench", op=op):
                        outcome = self.one_op(fixture, order, i)
                else:
                    outcome = self.one_op(fixture, order, i)
            except Exception as err:  # noqa: BLE001 - counted, reported
                phase.fail(f"{op}: {type(err).__name__}: {err}")
                i += 1
                continue
            t1 = time.perf_counter()
            phase.latencies_s.append(t1 - t0)
            problems = self.check(fixture, outcome)
            if problems:
                phase.fail(f"{op}: {problems}", mismatch=True)
            check_s += time.perf_counter() - t1
            i += 1
        phase.wall_s = time.perf_counter() - start - check_s
        self.summarize(fixture, phase)
        return phase

    def prepare_oracle(self, fixture) -> None:
        fixture["refs"] = [oracle.reference_product(a)
                           for a in fixture["operands"]]

    def summarize(self, fixture, phase: Phase) -> None:
        """Fill ``phase.extra`` after the loop (default: nothing)."""


def _warm(session: Session, operands) -> None:
    for a in operands:
        session.run(SpGEMMSpec(a=a, verify=False, label="warm"))


class AnalyticWarm(ClosedLoop):
    """Warm ``Session.run`` on the analytic backend, serial executor."""

    name = "analytic-warm"

    def setup(self, maker: InputMaker) -> dict:
        operands = [maker.operand(g, i)
                    for i, g in enumerate(self.profile.analytic)]
        session = Session("Tile-16", backend="analytic")
        _warm(session, operands)
        return {"seed": maker.seed, "session": session,
                "operands": operands, "repeat": oracle.RepeatCheck()}

    def one_op(self, fixture, order, i: int):
        k = int(order[i % len(order)])
        result = fixture["session"].run(
            SpGEMMSpec(a=fixture["operands"][k], verify=False,
                       label=f"op{i}"))
        return k, result

    def check(self, fixture, outcome) -> str | None:
        k, result = outcome
        return (oracle.product_mismatch(result.output, fixture["refs"][k])
                or fixture["repeat"].mismatch(
                    k, {"cycles": result.metrics["cycles"]}))

    def summarize(self, fixture, phase: Phase) -> None:
        first = fixture["repeat"].first
        if len(first) == len(fixture["operands"]):
            phase.extra["sim_cycles"] = sum(c["cycles"]
                                            for c in first.values())


class SimCycle(ClosedLoop):
    """Cycle-level NeuraSim through ``Session.run(verify=True)``."""

    name = "sim-cycle"

    def setup(self, maker: InputMaker) -> dict:
        operands = [maker.operand(g, i)
                    for i, g in enumerate(self.profile.cycle)]
        # Warm the program cache by compiling through a fast analytic
        # session that shares it, instead of simulating every graph once.
        with Session("Tile-16", backend="analytic") as warm:
            _warm(warm, operands)
            session = Session("Tile-16", backend="cycle", cache=warm.cache)
        return {"seed": maker.seed, "session": session,
                "operands": operands, "repeat": oracle.RepeatCheck(),
                "events": 0, "cycles": 0.0, "sim_s": 0.0}

    def one_op(self, fixture, order, i: int):
        k = int(order[i % len(order)])
        result = fixture["session"].run(
            SpGEMMSpec(a=fixture["operands"][k], verify=True,
                       label=f"op{i}"))
        return k, result

    def check(self, fixture, outcome) -> str | None:
        k, result = outcome
        report = result.report
        fixture["events"] += report.events
        fixture["cycles"] += report.cycles
        fixture["sim_s"] += report.wall_clock_seconds
        if report.correct is not True:
            return "simulator self-verification failed"
        counters = {"cycles": report.cycles, "events": report.events,
                    "stall_cycles": report.stall_cycles,
                    "evictions": report.evictions,
                    "core_utilization": report.core_utilization,
                    "mem_utilization": report.mem_utilization,
                    "hacc_instructions": report.hacc_instructions}
        return (oracle.product_mismatch(result.output, fixture["refs"][k])
                or fixture["repeat"].mismatch(k, counters))

    def summarize(self, fixture, phase: Phase) -> None:
        busy = sum(phase.latencies_s)
        if busy and fixture["sim_s"]:
            phase.extra["sim_events_per_s"] = fixture["events"] / busy
            phase.extra["sim_kcycles_per_s"] = \
                fixture["cycles"] / 1e3 / fixture["sim_s"]
        first = fixture["repeat"].first
        if len(first) == len(fixture["operands"]):
            phase.extra["sim_cycles"] = sum(c["cycles"]
                                            for c in first.values())
            phase.extra["sim_counters"] = {str(k): v
                                           for k, v in sorted(first.items())}


class FanoutProcess(ClosedLoop):
    """``Session.map`` of many small specs over the process executor."""

    name = "fanout-process"

    def setup(self, maker: InputMaker) -> dict:
        pool = [maker.operand(g, i)
                for i, g in enumerate(self.profile.fanout_pool)]
        session = Session("Tile-16", backend="analytic", executor="process",
                          workers=nproc())
        jobs = self.profile.fanout_jobs
        # One warm-up map spawns the worker pool.
        session.map([SpGEMMSpec(a=pool[j % len(pool)], verify=False,
                                label="warm") for j in range(jobs)])
        return {"seed": maker.seed, "session": session, "operands": pool,
                "repeat": oracle.RepeatCheck()}

    def one_op(self, fixture, order, i: int):
        # Every op maps the same multiset of graphs (the pool, repeated),
        # rotated so each op starts somewhere else in the seeded order.
        jobs = self.profile.fanout_jobs
        picks = [int(order[(i + j) % len(order)]) for j in range(jobs)]
        specs = [SpGEMMSpec(a=fixture["operands"][k], verify=False,
                            label=f"op{i}-{j}")
                 for j, k in enumerate(picks)]
        return picks, fixture["session"].map(specs)

    def check(self, fixture, outcome) -> str | None:
        picks, results = outcome
        if len(results) != len(picks):
            return f"{len(results)} results for {len(picks)} specs"
        for k, result in zip(picks, results):
            k = int(k)
            problem = (oracle.product_mismatch(result.output,
                                               fixture["refs"][k])
                       or fixture["repeat"].mismatch(
                           k, {"cycles": result.metrics["cycles"]}))
            if problem:
                return problem
        return None


CLOSED_LOOP = {cls.name: cls for cls in (AnalyticWarm, SimCycle,
                                         FanoutProcess)}
