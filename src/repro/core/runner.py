"""Batched workload execution: many SpGEMM / GCN jobs over one chip.

Serving traffic means running *queues* of jobs, not single matrices.  The
:class:`WorkloadQueue` collects :class:`WorkloadJob` descriptions, executes
them through any registered backend, and returns a :class:`BatchReport`
with per-job rows and aggregate totals.  Compilation — the symbolic pass
plus MMH lowering, the expensive front half of every run — is cached by
operand fingerprint in a :class:`ProgramCache`: an LRU bound in memory that
can also spill fingerprinted programs to disk, so repeated CLI / batch
invocations against the same graphs skip compilation entirely.

Queues now execute through a :class:`~repro.core.session.Session`; the
``run`` method here is a thin forwarding layer kept for compatibility.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.analysis.verifier import verify_program
from repro.compiler.program import Program
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.api import NeuraChip, SpGEMMRunResult

#: Default bound on cached compiled programs (LRU eviction).
DEFAULT_CACHE_CAPACITY = 128

#: Default bound on the on-disk cache tier, in bytes.  Long-lived serving
#: hosts spill every compiled program; without a cap the tier grows without
#: bound, so spills sweep the directory by mtime (oldest first) down to
#: this size.  ``max_disk_bytes=None`` disables the sweep.
DEFAULT_DISK_CAPACITY_BYTES = 256 * 1024 * 1024

#: On-disk cache schema version.  Part of every fingerprint and cache key:
#: bump it whenever the fingerprint inputs, the Program layout, or the
#: pickle payload change shape, so stale entries from an older release can
#: never silently collide with (or be served as) current ones.
#: v3: programs pickle as the columnar ``ProgramArrays`` payload (numpy
#: buffers) instead of a materialized macro-op list — far smaller spills,
#: and incompatible with the v2 object graph.
#: v4: ``ProgramArrays`` gains the operand pointers (``a_indptr`` /
#: ``b_indptr``) and the numeric plan columns (``plan_slot`` /
#: ``plan_b_index``; dropped when pickled, rebuilt from the pointers).
CACHE_SCHEMA_VERSION = 4


def matrix_fingerprint(matrix) -> str:
    """Stable content hash of a sparse matrix (structure + values + dtype).

    Accepts any CSR/CSC-shaped object exposing ``indptr`` / ``indices`` /
    ``data`` / ``shape``.  The digest covers the array dtypes and the cache
    schema version in addition to the raw bytes, so two matrices whose
    buffers happen to share a byte representation under different dtypes —
    or fingerprints minted by an older release — can never collide.
    """
    digest = hashlib.sha1()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    digest.update(str(matrix.shape).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def matrix_structure_fingerprint(matrix) -> str:
    """Stable hash of a sparse matrix's *structure* (shape + index arrays,
    values excluded).

    Two matrices with identical sparsity patterns but different values map
    to the same digest.  This is the cache key ingredient for resident-graph
    GNN stacks: the compiled aggregation program's instruction stream
    depends only on the operand structure, so layer ``i``'s program can be
    re-bound to layer ``i+1``'s values when the structure digest matches.
    """
    digest = hashlib.sha1()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}:structure".encode())
    digest.update(str(matrix.shape).encode())
    for array in (matrix.indptr, matrix.indices):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Default location for the persistent program cache
    (``$XDG_CACHE_HOME`` or ``~/.cache``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "neurachip-repro" / f"programs-v{CACHE_SCHEMA_VERSION}"


@dataclass
class WorkloadJob:
    """One unit of batched work.

    Attributes:
        a: left operand in CSR (adjacency matrix).
        b: right operand in CSR; ``None`` means the A @ A workload.
        label: human-readable name used in the batch report.
        tile_size: MMH tile-size override for this job.
        source: workload label recorded in the compiled program.
    """

    a: CSRMatrix
    b: CSRMatrix | None = None
    label: str = "job"
    tile_size: int | None = None
    source: str = "batch"

    @classmethod
    def spgemm(cls, a: CSRMatrix, b: CSRMatrix | None = None,
               label: str = "spgemm", tile_size: int | None = None
               ) -> "WorkloadJob":
        """An SpGEMM job C = A @ B (B defaults to A)."""
        return cls(a=a, b=b, label=label, tile_size=tile_size, source=label)


@dataclass
class JobOutcome:
    """Result of one job within a batch."""

    label: str
    result: "SpGEMMRunResult"
    cache_hit: bool
    wall_time_s: float = 0.0

    def as_row(self) -> dict:
        """Flat row for table / CSV export; ``None``-valued fields dropped
        so multi-row CSV exports stay rectangular."""
        report = self.result.report
        program = self.result.program
        row = {
            "job": self.label,
            "backend": self.result.backend,
            "cycles": report.cycles if report is not None else 0.0,
            "gops": round(report.gops, 3) if report is not None else 0.0,
            "mmh": program.n_instructions,
            "partial_products": program.total_partial_products,
            "output_nnz": self.result.output.nnz,
            "power_w": round(self.result.power_w, 2),
            "cache_hit": self.cache_hit,
            "wall_time_s": round(self.wall_time_s, 6),
            "compile_cached": self.cache_hit,  # legacy column name
        }
        return {key: value for key, value in row.items() if value is not None}


@dataclass
class BatchReport:
    """Aggregate outcome of a batch execution.

    Attributes:
        outcomes: per-job outcomes, in submission order.
        backend: backend name the batch ran on.
        executor: executor name the batch fanned out on.
        cache_hits: jobs whose compiled program came from the cache.
        wall_time_s: host wall-clock seconds for the whole batch.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    backend: str = ""
    executor: str = "serial"
    cache_hits: int = 0
    wall_time_s: float = 0.0

    @property
    def n_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def total_cycles(self) -> float:
        """Summed cycles across jobs (sequential-execution estimate)."""
        return sum(o.result.report.cycles for o in self.outcomes
                   if o.result.report is not None)

    @property
    def total_partial_products(self) -> int:
        return sum(o.result.program.total_partial_products
                   for o in self.outcomes)

    @property
    def total_energy_j(self) -> float:
        return sum(o.result.energy_j for o in self.outcomes)

    def as_rows(self) -> list[dict]:
        """Per-job rows for table / CSV export."""
        return [o.as_row() for o in self.outcomes]

    def summary(self) -> dict:
        """One aggregate row; ``None``-valued fields dropped."""
        row = {
            "jobs": self.n_jobs,
            "backend": self.backend,
            "executor": self.executor,
            "total_cycles": self.total_cycles,
            "total_partial_products": self.total_partial_products,
            "total_energy_j": round(self.total_energy_j, 9),
            "cache_hits": self.cache_hits,
            "wall_time_s": round(self.wall_time_s, 6),
            "compile_cache_hits": self.cache_hits,  # legacy column name
        }
        return {key: value for key, value in row.items() if value is not None}


class ProgramCache:
    """Bounded LRU cache of compiled programs keyed by operand content.

    Entries are touched on :meth:`get`, so hot programs survive pressure
    that would have evicted them under the old FIFO policy.  When
    ``cache_dir`` is given, every stored program is also pickled to disk
    under its key digest; later processes (or later CLI invocations) that
    miss in memory transparently load from disk, skipping compilation.
    The disk tier is itself bounded: every spill sweeps the directory down
    to ``max_disk_bytes`` by eviction of the oldest-mtime entries (disk
    hits touch the file's mtime, so the sweep is an LRU over entries any
    process sharing the directory actually uses).  The cache is
    thread-safe, so a thread executor can share it.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_dir: str | Path | None = None,
                 max_disk_bytes: int | None = DEFAULT_DISK_CAPACITY_BYTES
                 ) -> None:
        self.capacity = max(0, capacity)
        self.max_disk_bytes = max_disk_bytes
        self._entries: OrderedDict[tuple, Program] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.disk_hits = 0  # guarded-by: _lock
        self.disk_evictions = 0  # guarded-by: _lock
        self.verify_failed = 0  # guarded-by: _lock
        self.cache_dir: Path | None = None
        if cache_dir is not None:
            path = Path(cache_dir).expanduser()
            if path.exists() and not path.is_dir():
                raise ValueError(f"cache dir {str(path)!r} exists and is not "
                                 "a directory")
            path.mkdir(parents=True, exist_ok=True)
            self.cache_dir = path

    # ------------------------------------------------------------------
    def key(self, a, b, tile_size: int, kind: str = "spgemm") -> tuple:
        """Cache key for operands ``(a, b)`` at ``tile_size``.

        ``b=None`` means the A @ A workload, so it keys identically to
        ``b=a``.  ``kind`` separates program families (spgemm vs gcn
        aggregation) that would otherwise share operand fingerprints.
        """
        fingerprint_a = matrix_fingerprint(a)
        fingerprint_b = matrix_fingerprint(b) if b is not None else fingerprint_a
        return (CACHE_SCHEMA_VERSION, kind, fingerprint_a, fingerprint_b,
                tile_size)

    def _disk_path(self, key: tuple) -> Path:
        digest = hashlib.sha1(repr(key).encode()).hexdigest()
        return self.cache_dir / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Program | None:
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self._entries.move_to_end(key)  # LRU touch
                self.hits += 1
                return program
        program = self._load_from_disk(key)
        with self._lock:
            if program is not None:
                self.hits += 1
                self.disk_hits += 1
                self._store(key, program)
            else:
                self.misses += 1
        return program

    def put(self, key: tuple, program: Program) -> None:
        with self._lock:
            self._store(key, program)
        self._spill_to_disk(key, program)

    def _store(self, key: tuple, program: Program) -> None:  # lockcheck: holds _lock
        if self.capacity <= 0:
            return
        self._entries[key] = program
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def _load_from_disk(self, key: tuple) -> Program | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                schema, stored_key, program = pickle.load(handle)
            if schema != CACHE_SCHEMA_VERSION or stored_key != key:
                raise ValueError("stale or colliding cache entry")
            # The cache tier is payload-agnostic (tests and callers may
            # store non-Program values); only compiled programs carry IR
            # invariants to verify.
            findings = (verify_program(program, level="quick")
                        if isinstance(program, Program) else [])
            if findings:
                # A pickle that unpickles into an ill-formed program is
                # treated exactly like a corrupt entry (drop + recompile),
                # but counted separately: corruption that survives
                # pickle.load is worth alarming on.
                with self._lock:
                    self.verify_failed += 1
                raise ValueError("disk cache entry failed IR verification: "
                                 + findings[0].format())
            try:
                os.utime(path)  # LRU touch: hot entries survive the sweep
            except OSError:
                pass
            return program
        except Exception:  # corrupt/stale entries are misses, not errors
            path.unlink(missing_ok=True)
            return None

    def _spill_to_disk(self, key: tuple, program: Program) -> None:
        if self.cache_dir is None or self.capacity <= 0:
            return
        path = self._disk_path(key)
        # Unique temp name per writer so concurrent spills of the same
        # entry (thread pool, or processes sharing one cache dir) never
        # interleave partial writes; last replace wins atomically.
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump((CACHE_SCHEMA_VERSION, key, program), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic publish for concurrent writers
        except Exception:
            # Disk spill is best-effort: I/O errors and unpicklable
            # payloads (e.g. caller-extended metadata) must not abort the
            # run, and the partial temp file must not linger.
            tmp.unlink(missing_ok=True)
            return
        self._sweep_disk()

    def _sweep_disk(self) -> None:
        """Evict oldest-mtime disk entries until the tier fits
        ``max_disk_bytes`` (best-effort: concurrent writers may race the
        stat/unlink, which only makes the sweep conservative)."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return
        entries = []
        total = 0
        for path in self.cache_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_disk_bytes:
            return
        # Never evict the newest entry: a single program larger than the
        # cap must stay cached (deleting it would force a recompile on
        # every subsequent run without ever freeing the budget it needs).
        evicted = 0
        for _, size, path in sorted(entries)[:-1]:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
            evicted += 1
            total -= size
            if total <= self.max_disk_bytes:
                break
        if evicted:
            # _sweep_disk runs outside the lock (it only touches the
            # filesystem); the shared counter update must not.
            with self._lock:
                self.disk_evictions += evicted

    def clear_disk(self) -> int:
        """Remove every on-disk entry (and stray temp files); returns the
        number of cache entries removed."""
        if self.cache_dir is None:
            return 0
        removed = 0
        for path in self.cache_dir.glob("*.pkl"):
            try:
                path.unlink(missing_ok=True)
                removed += 1
            except OSError:
                continue
        for tmp in self.cache_dir.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        return removed

    def disk_stats(self) -> dict:
        """Entry count and byte totals of the on-disk tier."""
        entries = 0
        total = 0
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"disk_entries": entries, "disk_bytes": total,
                "max_disk_bytes": self.max_disk_bytes,
                "disk_evictions": self.disk_evictions,
                "verify_failed": self.verify_failed}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit / miss counters and sizing, as one flat dict."""
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "entries": len(self._entries),
                "capacity": self.capacity,
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
                **self.disk_stats()}

    def __len__(self) -> int:
        return len(self._entries)


class WorkloadQueue:
    """An ordered queue of jobs executed over one chip with program caching."""

    def __init__(self, jobs: Iterable[WorkloadJob] | None = None,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_dir: str | Path | None = None) -> None:
        self.jobs: list[WorkloadJob] = list(jobs or [])
        self.cache = ProgramCache(cache_capacity, cache_dir=cache_dir)

    def add(self, job: WorkloadJob) -> "WorkloadQueue":
        """Append a job; returns self for chaining."""
        self.jobs.append(job)
        return self

    def add_spgemm(self, a: CSRMatrix, b: CSRMatrix | None = None,
                   label: str = "spgemm",
                   tile_size: int | None = None) -> "WorkloadQueue":
        """Append an SpGEMM job; returns self for chaining."""
        return self.add(WorkloadJob.spgemm(a, b, label=label,
                                           tile_size=tile_size))

    # ------------------------------------------------------------------
    def run(self, chip: "NeuraChip", backend: str = "analytic",
            impl: str = "numpy", verify: bool = False,
            executor: str = "serial", workers: int | None = None
            ) -> BatchReport:
        """Execute every queued job on ``chip`` through ``backend``.

        Compiled programs are reused across jobs with identical operands and
        tile size, so a queue that replays the same graph many times (e.g.
        repeated inference requests) pays the symbolic pass once.  This now
        routes through a :class:`~repro.core.session.Session` bound to the
        queue's cache; pass ``executor`` / ``workers`` to fan the jobs out.
        """
        from repro.core.session import Session
        from repro.core.specs import BatchSpec, SpGEMMSpec

        session = Session(chip, backend=backend, impl=impl,
                          executor=executor, workers=workers,
                          cache=self.cache)
        try:
            specs = [SpGEMMSpec(a=job.a, b=job.b, label=job.label,
                                tile_size=job.tile_size, source=job.source,
                                verify=verify)
                     for job in self.jobs]
            return session.run(BatchSpec(specs=specs)).legacy
        finally:
            session.close()
