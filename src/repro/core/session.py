"""The unified Session API: declarative specs in, RunResult envelopes out.

A :class:`Session` is the one entry point for every workload.  It owns
backend resolution, kernel-implementation selection, a pluggable executor
(``serial`` / ``thread`` / ``process``, registered like backends), a
persistent LRU :class:`~repro.core.runner.ProgramCache`, and the
:class:`~repro.core.api.NeuraChip` whose configuration, compiler and power
model every run uses.
Workloads are described declaratively (:mod:`repro.core.specs`) and
submitted through three verbs::

    from repro.core import Session, SpGEMMSpec

    with Session("Tile-16", backend="analytic", executor="process",
                 workers=4, cache_dir="~/.cache/neurachip-repro") as session:
        result = session.run(SpGEMMSpec(a=adjacency))          # one result
        results = session.map([SpGEMMSpec(a=m) for m in mats]) # fan-out
        future = session.submit(SpGEMMSpec(a=adjacency))       # async

Every execution returns a :class:`~repro.core.specs.RunResult` carrying
metrics, activity factors, power/energy, and provenance (backend, impl,
executor, cache hit, wall time, shard count).  A result reduced from
sub-results (a sharded SpGEMM, a batch) lists them in ``parts``.

Sharding: an :class:`~repro.core.specs.SpGEMMSpec` with ``shards > 1`` is
split by the planner into balanced row-group jobs — rows of A partition the
partial products of A @ B exactly — which fan out over the executor and
reduce into a single result whose output matrix is identical to the
unsharded product.

Scale-out: ``Session(backend="multichip", chips=N)`` (or a full
:class:`~repro.backends.multichip.ChipTopology`) assigns those row shards
to N distinct chip instances — one
:class:`~repro.backends.base.ExecutionContext` per chip, each with its own
compiled shard program and stats — and reduces per-chip products into the
same byte-identical output, with cycles modelled as the slowest chip plus
a host reduce term and power summed across the fleet.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace as _replace_spec
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.findings import VerificationError
from repro.analysis.verifier import VERIFY_LEVELS, verify_program
from repro.arch.config import NeuraChipConfig, get_config
from repro.backends import ChipTopology, get_backend
from repro.compiler import compile_gcn_aggregation
from repro.compiler.program import ProgramDigest
from repro.core.api import NeuraChip, _as_csr
from repro.core.executors import Executor, get_executor
from repro.core.runner import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_DISK_CAPACITY_BYTES,
    ProgramCache,
)
from repro.core.specs import (
    BatchSpec,
    GCNLayerSpec,
    GNNModelSpec,
    Provenance,
    RunResult,
    SpGEMMSpec,
    SweepSpec,
    WorkloadSpec,
)
from repro.sim.params import SimulationParams
from repro.sparse.convert import csc_to_csr, csr_vstack
from repro.sparse.csr import CSRMatrix
from repro.sparse.kernels import IMPLS

# The planner lives in the sparse layer now (it is shared with the
# multichip backend); these re-exports keep the historical import path.
from repro.sparse.partition import (  # noqa: F401  (re-exported API)
    PARTITION_STRATEGIES,
    ShardPlan,
    build_shard_units,
    estimate_row_partial_products,
    plan_row_shards,
    plan_shards,
    stitch_shard_outputs,
)


# ----------------------------------------------------------------------
# Process-executor workers (module level so they pickle)
# ----------------------------------------------------------------------
def _process_spec_worker(state: dict, spec: WorkloadSpec) -> RunResult:
    """Run one spec in a worker process with a fresh session built from
    ``state`` for this task alone, so its in-memory program cache starts
    empty every time; only the disk cache (when configured) is shared,
    through the filesystem."""
    session = Session(**state)
    try:
        # Slim the result so the reply doesn't serialise the full macro-op
        # stream; count-level digests keep every report column working.
        return session.run(spec).slim()
    finally:
        session.close()


def _sweep_config_worker(payload: dict) -> tuple[str, dict[str, float]]:
    """Run one configuration of a design-space sweep through its own
    session and return the raw Figure-11 metrics row."""
    chip = NeuraChip(payload["config"], eviction_mode=payload["eviction_mode"],
                     params=payload["params"])
    with Session(chip, backend=payload["backend"],
                 topology=payload["topology"]) as session:
        result = session.run(SpGEMMSpec(a=payload["a"], b=payload["b"],
                                        verify=False))
    report = result.report
    if report is None:
        raise ValueError(f"backend {payload['backend']!r} produces no timing "
                         "report; use 'cycle' or 'analytic'")
    return chip.config.name, {
        "stall_cycles": report.stall_cycles,
        "cpi": report.cpi,
        "ipc": report.ipc,
        "in_flight_instx": report.avg_inflight_mem,
        "power": result.power_w,
        "busy_cycles": report.busy_cycles,
        "cycles": report.cycles,
        "gops": report.gops,
    }


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class Session:
    """One configured execution context: chip + backend + executor + cache.

    Args:
        chip_config: configuration name, :class:`NeuraChipConfig`, or an
            existing :class:`~repro.core.api.NeuraChip` to bind to.
        backend: registered execution backend name for every run.
        impl: kernel implementation for kernel-layer backends.
        executor: registered executor name ('serial', 'thread', 'process').
        workers: worker count for the pooled executors.
        cache: an existing :class:`ProgramCache` to share; overrides
            ``cache_dir`` / ``cache_capacity``.
        cache_dir: directory for the persistent program cache; ``None``
            keeps the cache in memory only.
        cache_capacity: in-memory LRU bound.
        cache_max_disk_bytes: size cap of the on-disk cache tier (swept
            oldest-mtime-first on spill); ``None`` disables the sweep.
        chips: chip count for the ``multichip`` backend (shorthand for
            ``topology=ChipTopology(n_chips=chips)``).
        topology: full :class:`~repro.backends.multichip.ChipTopology`
            (chip count, per-chip backend, host-reduce cost model); only
            meaningful with ``backend="multichip"``.
        partition: shard planning strategy ('auto', 'contiguous' or
            'degree') for both host-side sharding (``shards > 1``) and the
            multichip backend; 'auto' (default) keeps contiguous ranges
            unless a cheap skew probe shows the degree-aware index-set
            plan is measurably more balanced.
        mapping_scheme / eviction_mode / params / mapping_seed: forwarded
            to the chip when one is constructed here.

    All names (backend, executor, impl) are resolved eagerly so a typo
    fails at construction, not mid-batch.
    """

    def __init__(self, chip_config="Tile-16", *,
                 backend: str = "cycle", impl: str = "numpy",
                 executor: str = "serial", workers: int | None = None,
                 cache: ProgramCache | None = None,
                 cache_dir: str | Path | None = None,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_max_disk_bytes: int | None = DEFAULT_DISK_CAPACITY_BYTES,
                 chips: int | None = None,
                 topology: ChipTopology | None = None,
                 partition: str = "auto",
                 mapping_scheme: str | None = None,
                 eviction_mode: str = "rolling",
                 params: SimulationParams | None = None,
                 mapping_seed: int = 0,
                 verify: str | None = None) -> None:
        if isinstance(chip_config, NeuraChip):
            self.chip = chip_config
        else:
            self.chip = NeuraChip(chip_config, mapping_scheme=mapping_scheme,
                                  eviction_mode=eviction_mode, params=params,
                                  mapping_seed=mapping_seed)
        get_backend(backend)  # fail fast on unknown names
        if impl not in IMPLS:
            raise ValueError(f"unknown kernel impl {impl!r}; "
                             f"available impls: {list(IMPLS)}")
        if chips is not None and topology is not None \
                and topology.n_chips != chips:
            raise ValueError(f"chips={chips} contradicts "
                             f"topology.n_chips={topology.n_chips}")
        if partition not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown partition strategy {partition!r}; "
                             f"expected one of {PARTITION_STRATEGIES}")
        if topology is None and chips is not None:
            topology = ChipTopology(n_chips=chips, partition=partition)
        if backend == "multichip" and topology is None:
            topology = ChipTopology(partition=partition)
        if topology is not None and partition != "auto":
            if topology.partition == "auto":
                topology = _replace_spec(topology, partition=partition)
            elif topology.partition != partition:
                raise ValueError(
                    f"partition={partition!r} contradicts "
                    f"topology.partition={topology.partition!r}")
        if topology is not None and backend != "multichip":
            raise ValueError("chips/topology require backend='multichip'; "
                             f"got backend={backend!r}")
        if topology is not None:
            get_backend(topology.chip_backend)  # fail fast here too
        self.backend = backend
        self.topology = topology
        self.partition = partition
        self.impl = impl
        self.executor: Executor = get_executor(executor, workers=workers)
        self.cache = cache if cache is not None else \
            ProgramCache(cache_capacity, cache_dir=cache_dir,
                         max_disk_bytes=cache_max_disk_bytes)
        if verify in (None, "off"):
            self.verify_mode: str | None = None
        elif verify in VERIFY_LEVELS:
            self.verify_mode = verify
        else:
            raise ValueError(f"unknown verify mode {verify!r}; expected "
                             f"one of {VERIFY_LEVELS} or None/'off'")
        self._verify_lock = threading.Lock()
        self._verified_digests: set = set()  # guarded-by: _verify_lock
        self.verify_runs = 0  # guarded-by: _verify_lock
        self.verify_skips = 0  # guarded-by: _verify_lock
        self._local = threading.local()
        self._closed = False

    # ------------------------------------------------------------------
    # Public verbs
    # ------------------------------------------------------------------
    def run(self, spec: WorkloadSpec) -> RunResult:
        """Execute one spec and return its :class:`RunResult`."""
        self._ensure_open()
        return self._run_one(spec)

    def map(self, specs: Iterable[WorkloadSpec]) -> list[RunResult]:
        """Execute many specs over the session executor; results come back
        in submission order."""
        self._ensure_open()
        return self._map_specs(list(specs))

    def submit(self, spec: WorkloadSpec):
        """Schedule one spec; returns a ``concurrent.futures.Future`` whose
        result is the :class:`RunResult`."""
        self._ensure_open()
        if self.executor.name == "process":
            fn = partial(_process_spec_worker, self._subprocess_state())
        else:
            fn = self._run_in_worker
        return self.executor.submit(fn, spec)

    def close(self) -> None:
        """Release executor resources; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or ``__exit__``) has run."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_stats(self) -> dict:
        """Program-cache hit/miss counters and sizing."""
        return self.cache.stats()

    def verify_stats(self) -> dict:
        """IR-verification counters: mode, programs verified (one per
        distinct cache key, memoized) and memo-hit skips."""
        with self._verify_lock:
            return {"verify_mode": self.verify_mode,
                    "verify_runs": self.verify_runs,
                    "verify_skips": self.verify_skips}

    def _maybe_verify(self, key: tuple, program):
        """Run the static IR verifier on ``program`` once per cache key.

        With ``verify=None`` this is a no-op.  Otherwise the first sight
        of a key (fresh compile, memory hit or disk hit) pays one
        verification at the session's level; repeats are memo hits.  A
        failed verification un-reserves the key (so a later, repaired
        program is re-checked) and raises
        :class:`~repro.analysis.findings.VerificationError`.
        """
        if self.verify_mode is None:
            return program
        with self._verify_lock:
            if key in self._verified_digests:
                self.verify_skips += 1
                return program
            self._verified_digests.add(key)
        findings = verify_program(program, level=self.verify_mode)
        if findings:
            with self._verify_lock:
                self._verified_digests.discard(key)
            raise VerificationError(
                f"program {program.source!r} failed IR verification: "
                + "; ".join(f.format() for f in findings[:3]), findings)
        with self._verify_lock:
            self.verify_runs += 1
        return program

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run_one(self, spec: WorkloadSpec) -> RunResult:
        if isinstance(spec, SpGEMMSpec):
            return self._execute_spgemm(spec)
        if isinstance(spec, GCNLayerSpec):
            return self._execute_gcn_layer(spec)
        if isinstance(spec, GNNModelSpec):
            return self._execute_gnn_model(spec)
        if isinstance(spec, SweepSpec):
            return self._execute_sweep(spec)
        if isinstance(spec, BatchSpec):
            return self._execute_batch(spec)
        raise TypeError(f"unsupported spec type {type(spec)!r}")

    def _map_specs(self, specs: Sequence[WorkloadSpec]) -> list[RunResult]:
        if getattr(self._local, "in_worker", False):
            # Already inside one of this session's pool workers (a sharded
            # spec within a batch, or a sharded submit): fanning out to the
            # same pool and blocking on the results would deadlock once the
            # pool is saturated, so nested work runs inline instead.
            return [self._run_one(spec) for spec in specs]
        if self.executor.name == "process":
            fn = partial(_process_spec_worker, self._subprocess_state())
            return self.executor.map(fn, specs)
        return self.executor.map(self._run_in_worker, specs)

    def _run_in_worker(self, spec: WorkloadSpec) -> RunResult:
        """Run one spec with the worker flag set so nested fan-out stays
        inline (see :meth:`_map_specs`)."""
        self._local.in_worker = True
        try:
            return self._run_one(spec)
        finally:
            self._local.in_worker = False

    def _subprocess_state(self) -> dict:
        """Constructor kwargs rebuilding this session inside a worker
        process (executor forced serial; disk cache shared, memory not)."""
        chip = self.chip
        return {
            "chip_config": chip.config,
            "backend": self.backend,
            "topology": self.topology,
            "partition": self.partition,
            "impl": self.impl,
            "executor": "serial",
            "cache_dir": self.cache.cache_dir,
            "cache_capacity": self.cache.capacity,
            "cache_max_disk_bytes": self.cache.max_disk_bytes,
            "mapping_scheme": chip.mapping_scheme,
            "eviction_mode": chip.eviction_mode,
            "params": chip.params,
            "mapping_seed": chip.mapping_seed,
            "verify": self.verify_mode,
        }

    # ------------------------------------------------------------------
    # SpGEMM
    # ------------------------------------------------------------------
    def _compile_cached(self, a_csr: CSRMatrix, b_csr: CSRMatrix | None,
                        tile_size: int, source: str) -> tuple:
        """Compile (or fetch) the program for (a, b); returns
        ``(program, cache_hit)``."""
        key = self.cache.key(a_csr, b_csr, tile_size)
        program = self.cache.get(key)
        if program is not None:
            return self._maybe_verify(key, program), True
        program = self.chip.compile(a_csr, b_csr, tile_size=tile_size,
                                    source=source)
        self.cache.put(key, program)
        return self._maybe_verify(key, program), False

    def _execute_spgemm(self, spec: SpGEMMSpec) -> RunResult:
        start = time.perf_counter()
        a_csr = _as_csr(spec.a)
        b_csr = _as_csr(spec.b) if spec.b is not None else None
        if self.backend == "multichip":
            return self._execute_multichip_spgemm(spec, a_csr, b_csr, start)
        if spec.shards > 1:
            return self._execute_sharded_spgemm(spec, a_csr, b_csr, start)
        tile = spec.tile_size or self.chip.config.mmh_tile_size
        program, cache_hit = self._compile_cached(a_csr, b_csr, tile,
                                                  spec.source)
        execution = get_backend(self.backend).execute(
            program, self.chip._context(self.impl), a_csr=a_csr,
            b_csr=b_csr if b_csr is not None else a_csr, verify=spec.verify)
        power_w, energy_j = self.chip._estimate_power(execution.report)
        wall = time.perf_counter() - start
        report = execution.report
        metrics = {
            "cycles": report.cycles if report is not None else 0.0,
            "gops": round(report.gops, 3) if report is not None else 0.0,
            "mmh": program.n_instructions,
            "partial_products": program.total_partial_products,
            "output_nnz": execution.output.nnz,
            "verified": report.correct if report is not None else None,
        }
        activity = (self.chip._activity_from_report(report)
                    if report is not None else {})
        return RunResult(
            kind="spgemm", label=spec.label, metrics=metrics,
            activity=activity,
            provenance=self._provenance(cache_hit=cache_hit, wall=wall),
            output=execution.output, report=report, program=program,
            power_w=power_w, energy_j=energy_j)

    def _execute_sharded_spgemm(self, spec: SpGEMMSpec, a_csr: CSRMatrix,
                                b_csr: CSRMatrix | None,
                                start: float) -> RunResult:
        """Split C = A @ B into row-group shards, fan them out over the
        executor, and reduce into one result.

        Rows of A partition the partial products of A @ B exactly, so the
        merged output matrix, output nnz, and total partial-product count
        are identical to the unsharded run; per-shard timing reports are
        aggregated (cycles summed — a sequential estimate).

        The session's ``partition`` strategy applies: contiguous plans
        reduce with :func:`~repro.sparse.convert.csr_vstack`, degree-aware
        plans (index-set shards plus monster-row column fragments) with
        the fragment-aware :func:`~repro.sparse.partition.stitch_shard_outputs`
        — both byte-identical to the unsharded product."""
        effective_b = b_csr if b_csr is not None else a_csr
        plan = plan_shards(a_csr, spec.shards, effective_b,
                           strategy=self.partition)
        if plan.n_shards == 1:
            # Degenerate plan (single row, empty matrix, one unit of work):
            # run unsharded instead of compiling a one-shard copy.
            return self._execute_spgemm(_replace_spec(spec, shards=1))
        if plan.ranges is not None:
            shard_specs = [
                SpGEMMSpec(a=a_csr.row_slice(lo, hi), b=effective_b,
                           tile_size=spec.tile_size, verify=spec.verify,
                           source=f"{spec.source}[{lo}:{hi}]",
                           label=f"{spec.label}/shard{index}")
                for index, (lo, hi) in enumerate(plan.ranges)
            ]
            parts = self._map_specs(shard_specs)
            output = csr_vstack([result.output for result in parts])
        else:
            unit_specs, regroup = [], []
            for index, units in enumerate(
                    build_shard_units(a_csr, effective_b, plan)):
                for unit in units:
                    if unit.fragment is None:
                        source = f"{spec.source}[shard{index}]"
                        label = f"{spec.label}/shard{index}"
                    else:
                        fragment = unit.fragment
                        source = (f"{spec.source}[shard{index}:"
                                  f"r{fragment.row}@c{fragment.col_lo}"
                                  f":{fragment.col_hi}]")
                        label = (f"{spec.label}/shard{index}"
                                 f".r{fragment.row}")
                    unit_specs.append(SpGEMMSpec(
                        a=unit.a, b=unit.b, tile_size=spec.tile_size,
                        verify=spec.verify, source=source, label=label))
                    regroup.append((index, unit.fragment is None))
            parts = self._map_specs(unit_specs)
            grouped: list[tuple] = [(None, []) for _ in plan.shards]
            for (index, is_rows), result in zip(regroup, parts):
                rows_out, frag_outs = grouped[index]
                if is_rows:
                    grouped[index] = (result.output, frag_outs)
                else:
                    frag_outs.append(result.output)
            output = stitch_shard_outputs(plan, grouped,
                                          effective_b.shape[1])
        wall = time.perf_counter() - start
        verified = [result.metrics.get("verified") for result in parts]
        powers = [result.power_w for result in parts
                  if result.power_w > 0]
        metrics = {
            "cycles": sum(r.metrics["cycles"] for r in parts),
            "gops": round(sum(r.metrics["gops"] for r in parts), 3),
            "mmh": sum(r.metrics["mmh"] for r in parts),
            "partial_products": sum(r.metrics["partial_products"]
                                    for r in parts),
            "output_nnz": output.nnz,
            "verified": (None if any(v is None for v in verified)
                         else all(verified)),
        }
        provenance = self._provenance(
            cache_hit=all(r.cache_hit for r in parts), wall=wall)
        provenance.shards = plan.n_shards
        power_w = max(powers) if powers else 0.0
        energy_j = sum(r.energy_j for r in parts)
        # No single compiled program backs a sharded run; a count digest
        # stands in so report rows keep working.
        digest = ProgramDigest(
            n_instructions=metrics["mmh"],
            total_partial_products=metrics["partial_products"],
            output_nnz=output.nnz, shape=output.shape,
            tile_size=spec.tile_size or self.chip.config.mmh_tile_size,
            a_nnz=a_csr.nnz, b_nnz=effective_b.nnz, source=spec.source)
        return RunResult(
            kind="spgemm", label=spec.label, metrics=metrics,
            provenance=provenance, output=output, program=digest,
            power_w=power_w, energy_j=energy_j, parts=parts)

    def _multichip_backend(self):
        """A configured :class:`~repro.backends.multichip.MultiChipBackend`:
        session topology + program cache, fanning per-chip work out over the
        session executor (inline when already inside a pool worker, so a
        multichip spec inside a batch cannot deadlock the pool)."""
        backend = get_backend("multichip")
        backend.topology = self.topology
        backend.cache = self.cache
        if not getattr(self._local, "in_worker", False):
            backend.executor = self.executor
        return backend

    def _multichip_power_and_digest(self, execution, tile: int, a_nnz: int,
                                    b_nnz: int, source: str):
        """Fleet power/energy (summed per chip) and the count digest that
        stands in for a compiled program on multichip runs."""
        power_w = energy_j = 0.0
        for run in execution.chip_runs:
            chip_power, chip_energy = self.chip._estimate_power(run.report)
            power_w += chip_power
            energy_j += chip_energy
        digest = ProgramDigest(
            n_instructions=sum(run.mmh for run in execution.chip_runs),
            total_partial_products=sum(run.partial_products
                                       for run in execution.chip_runs),
            output_nnz=execution.output.nnz, shape=execution.output.shape,
            tile_size=tile, a_nnz=a_nnz, b_nnz=b_nnz, source=source)
        return power_w, energy_j, digest

    def _execute_multichip_spgemm(self, spec: SpGEMMSpec, a_csr: CSRMatrix,
                                  b_csr: CSRMatrix | None,
                                  start: float) -> RunResult:
        """Assign row shards to N chip instances and reduce (tentpole path).

        Each chip compiles and executes its own shard program on its own
        :class:`~repro.backends.base.ExecutionContext`; the reduced output
        is identical to the single-chip unsharded product.  Aggregate
        cycles are ``max over chips + host reduce term``; power and energy
        are summed across chips."""
        if spec.shards > 1:
            raise ValueError(
                "the multichip backend assigns row shards to chips itself; "
                "set Session(chips=N) instead of SpGEMMSpec(shards=N)")
        tile = spec.tile_size or self.chip.config.mmh_tile_size
        execution = self._multichip_backend().execute_operands(
            a_csr, b_csr, self.chip._context(self.impl), tile_size=tile,
            source=spec.source, verify=spec.verify)
        wall = time.perf_counter() - start
        report = execution.report
        effective_b = b_csr if b_csr is not None else a_csr
        power_w, energy_j, digest = self._multichip_power_and_digest(
            execution, tile, a_csr.nnz, effective_b.nnz, spec.source)
        counters = report.counters if report is not None else {}
        metrics = {
            "cycles": report.cycles if report is not None else 0.0,
            "gops": round(report.gops, 3) if report is not None else 0.0,
            "mmh": digest.n_instructions,
            "partial_products": digest.total_partial_products,
            "output_nnz": execution.output.nnz,
            "chips": execution.n_chips,
            "shard_skew": counters.get("multichip.shard_skew"),
            "efficiency": counters.get("multichip.efficiency"),
            "partition": (execution.plan.strategy
                          if execution.plan is not None else None),
            "split_rows": (len(execution.plan.split_rows)
                           if execution.plan is not None else 0),
            "verified": report.correct if report is not None else None,
        }
        provenance = self._provenance(cache_hit=execution.cache_hit,
                                      wall=wall)
        provenance.chips = execution.n_chips
        activity = (self.chip._activity_from_report(report)
                    if report is not None else {})
        return RunResult(
            kind="spgemm", label=spec.label, metrics=metrics,
            activity=activity, provenance=provenance,
            output=execution.output, report=report, program=digest,
            power_w=power_w, energy_j=energy_j)

    # ------------------------------------------------------------------
    # GCN layer
    # ------------------------------------------------------------------
    def _gcn_workload(self, spec: GCNLayerSpec, dataset):
        """Build the layer workload for a :class:`GCNLayerSpec`.

        Without explicit ``features`` this is the synthetic-feature
        workload.  With ``features`` (a chained layer fed its predecessor's
        output) the input flows through the same dense full-structure CSR
        encoding the :class:`GNNModelSpec` pipeline uses, so a
        layer-by-layer chain stays byte-identical to the stacked run."""
        from repro.gnn.gcn import GCNLayer, GCNWorkload, \
            normalize_adjacency_cached
        from repro.gnn.pipeline import full_structure_csr

        if spec.features is None:
            return GCNWorkload.build(dataset, feature_dim=spec.feature_dim,
                                     hidden_dim=spec.hidden_dim,
                                     feature_density=spec.feature_density,
                                     seed=spec.seed,
                                     weight_seed=spec.weight_seed,
                                     activation=spec.activation)
        features = spec.features
        dense = features if isinstance(features, np.ndarray) \
            else features.to_dense()
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dataset.n_nodes:
            raise ValueError(
                f"features shape {dense.shape} does not match the "
                f"{dataset.n_nodes}-node dataset")
        layer = GCNLayer.create(
            dense.shape[1], spec.hidden_dim,
            seed=spec.seed + 1 if spec.weight_seed is None
            else spec.weight_seed,
            activation=spec.activation)
        return GCNWorkload(dataset=dataset,
                           a_hat=normalize_adjacency_cached(dataset.adjacency),
                           features=full_structure_csr(dense), layer=layer)

    def _execute_gcn_layer(self, spec: GCNLayerSpec) -> RunResult:
        from repro.datasets.suite import DatasetSpec, GraphDataset

        start = time.perf_counter()
        dataset = spec.dataset
        if not isinstance(dataset, GraphDataset):
            dataset_spec = DatasetSpec("custom", "custom", dataset.shape[0],
                                       dataset.nnz, 0.0, None,
                                       feature_dim=spec.feature_dim)
            dataset = GraphDataset(dataset_spec, dataset, 1.0)
        workload = self._gcn_workload(spec, dataset)
        a_csc = workload.adjacency_csc
        tile = self.chip.config.mmh_tile_size
        if self.backend == "multichip":
            # Each chip compiles its own shard of A @ X, so the
            # whole-matrix aggregation program would be discarded: skip it
            # and report a count digest, with power summed over the fleet
            # exactly like the SpGEMM multichip path.
            label = f"gcn-aggregation:{workload.dataset.name}"
            execution = self._multichip_backend().execute_operands(
                csc_to_csr(a_csc), workload.features,
                self.chip._context(self.impl), tile_size=tile,
                source=label, verify=spec.verify)
            cache_hit = execution.cache_hit
            power_w, energy_j, program = self._multichip_power_and_digest(
                execution, tile, a_csc.nnz, workload.features.nnz, label)
        else:
            key = self.cache.key(a_csc, workload.features, tile, kind="gcn")
            program = self.cache.get(key)
            cache_hit = program is not None
            if program is None:
                program = compile_gcn_aggregation(
                    a_csc, workload.features, tile_size=tile,
                    dataset=workload.dataset.name)
                self.cache.put(key, program)
            program = self._maybe_verify(key, program)
            execution = get_backend(self.backend).execute(
                program, self.chip._context(self.impl),
                a_csr=csc_to_csr(a_csc), b_csr=workload.features,
                verify=spec.verify)
            power_w, energy_j = self.chip._estimate_power(execution.report)
        report = execution.report
        combined = workload.layer.combination(execution.to_dense())
        combination_cycles = self.chip._combination_cycles(workload)
        aggregation_cycles = report.cycles if report is not None else 0.0
        wall = time.perf_counter() - start
        metrics = {
            "aggregation_cycles": aggregation_cycles,
            "combination_cycles": round(combination_cycles, 1),
            "total_cycles": round(aggregation_cycles + combination_cycles, 1),
            "output_shape": str(combined.shape),
            "verified": report.correct if report is not None else None,
        }
        activity = (self.chip._activity_from_report(report)
                    if report is not None else {})
        provenance = self._provenance(cache_hit=cache_hit, wall=wall)
        provenance.chips = getattr(execution, "n_chips", 1)
        return RunResult(
            kind="gcn_layer", label=spec.label, metrics=metrics,
            activity=activity, provenance=provenance,
            output=combined, report=report, program=program,
            power_w=power_w, energy_j=energy_j)

    # ------------------------------------------------------------------
    # GNN model stack
    # ------------------------------------------------------------------
    def _execute_gnn_model(self, spec: GNNModelSpec) -> RunResult:
        """Execute a whole layer stack over one resident graph: normalise
        once, compile the aggregation program once, re-bind feature values
        per layer, pipeline batches across the fleet.  The heavy lifting
        lives in :func:`repro.gnn.pipeline.run_gnn_model`."""
        from repro.gnn.pipeline import run_gnn_model

        return run_gnn_model(self, spec)

    # ------------------------------------------------------------------
    # Design-space sweep
    # ------------------------------------------------------------------
    def _execute_sweep(self, spec: SweepSpec) -> RunResult:
        start = time.perf_counter()
        get_backend(self.backend)
        if self.backend == "functional":
            raise ValueError("backend 'functional' produces no timing report; "
                             "use 'cycle' or 'analytic'")
        payloads = [{"config": config, "a": spec.a, "b": spec.b,
                     "eviction_mode": spec.eviction_mode,
                     "params": self.chip.params, "backend": self.backend,
                     "topology": self.topology}
                    for config in spec.configs]
        raw = dict(self.executor.map(_sweep_config_worker, payloads))
        table = raw if spec.normalize_to is None else \
            self._normalize_sweep(raw, spec)
        wall = time.perf_counter() - start
        return RunResult(
            kind="sweep", label=spec.label,
            metrics={"configs": len(table)},
            provenance=self._provenance(cache_hit=False, wall=wall),
            output=table)

    @staticmethod
    def _normalize_sweep(raw: dict, spec: SweepSpec) -> dict:
        base_name = get_config(spec.normalize_to).name \
            if isinstance(spec.normalize_to, str) else spec.normalize_to.name
        base = raw[base_name]
        normalized: dict[str, dict[str, float]] = {}
        for name, metrics in raw.items():
            normalized[name] = {}
            for key, value in metrics.items():
                if not base.get(key):
                    if spec.on_missing_base == "raise":
                        raise ValueError(
                            f"cannot normalise metric {key!r}: baseline "
                            f"{base_name!r} reports {base.get(key)!r}")
                    continue
                normalized[name][key] = value / base[key]
        return normalized

    # ------------------------------------------------------------------
    # Batch
    # ------------------------------------------------------------------
    def _execute_batch(self, spec: BatchSpec) -> RunResult:
        start = time.perf_counter()
        parts = self._map_specs(spec.specs)
        wall = time.perf_counter() - start
        energy_j = sum(part.energy_j for part in parts)
        metrics = {
            "jobs": len(parts),
            "total_cycles": sum(part.metrics["cycles"] for part in parts),
            "total_partial_products": sum(part.metrics["partial_products"]
                                          for part in parts),
            "total_energy_j": round(energy_j, 9),
            "cache_hits": sum(part.cache_hit for part in parts),
        }
        provenance = self._provenance(
            cache_hit=bool(parts) and all(part.cache_hit for part in parts),
            wall=wall)
        return RunResult(
            kind="batch", label=spec.label, metrics=metrics,
            provenance=provenance,
            power_w=max((part.power_w for part in parts), default=0.0),
            energy_j=energy_j, parts=parts)

    # ------------------------------------------------------------------
    def _provenance(self, cache_hit: bool, wall: float) -> Provenance:
        return Provenance(backend=self.backend, impl=self.impl,
                          executor=self.executor.name,
                          config=self.chip.config.name,
                          cache_hit=cache_hit, wall_time_s=wall)
