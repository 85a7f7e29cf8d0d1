"""Batches through a session: program caching and aggregate reporting."""

import numpy as np
import pytest

from repro.core import BatchSpec, Session, SpGEMMSpec
from repro.core.api import NeuraChip
from repro.core.runner import ProgramCache, matrix_fingerprint
from repro.datasets import load_dataset
from repro.sparse.csr import CSRMatrix


@pytest.fixture(scope="module")
def chip():
    return NeuraChip("Tile-4")


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name, max_nodes=80, seed=5).adjacency_csr()
            for name in ("wiki-Vote", "facebook")}


def run_batch(chip, specs, backend="analytic", **session_kwargs):
    """Run ``specs`` as one :class:`BatchSpec` on a fresh session."""
    with Session(chip, backend=backend, **session_kwargs) as session:
        return session.run(BatchSpec(specs=specs))


class TestFingerprint:
    def test_stable_and_content_sensitive(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((10, 10)) < 0.3) * rng.random((10, 10))
        a = CSRMatrix.from_dense(dense)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())
        dense[0, 0] += 1.0
        assert matrix_fingerprint(CSRMatrix.from_dense(dense)) \
            != matrix_fingerprint(a)


class TestProgramCache:
    def test_insertion_order_eviction_without_touches(self):
        cache = ProgramCache(capacity=2)
        for i in range(3):
            cache.put(("key", i), f"program-{i}")
        assert cache.get(("key", 0)) is None
        assert cache.get(("key", 2)) == "program-2"

    def test_lru_get_touch_protects_entry(self):
        cache = ProgramCache(capacity=2)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        assert cache.get(("key", 0)) == "program-0"  # touch: 0 becomes MRU
        cache.put(("key", 2), "program-2")           # evicts 1, not 0
        assert cache.get(("key", 0)) == "program-0"
        assert cache.get(("key", 1)) is None
        assert cache.get(("key", 2)) == "program-2"

    def test_lru_put_touch_refreshes_entry(self):
        cache = ProgramCache(capacity=2)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        cache.put(("key", 0), "program-0b")  # re-put: 0 becomes MRU
        cache.put(("key", 2), "program-2")   # evicts 1
        assert cache.get(("key", 0)) == "program-0b"
        assert cache.get(("key", 1)) is None

    def test_zero_capacity_never_stores(self):
        cache = ProgramCache(capacity=0)
        cache.put(("k",), "p")
        assert len(cache) == 0

    def test_hit_miss_counters_in_stats(self):
        cache = ProgramCache(capacity=2)
        cache.put(("k",), "p")
        cache.get(("k",))
        cache.get(("absent",))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["cache_dir"] is None

    def test_disk_spill_and_reload(self, tmp_path, chip, graphs):
        a = graphs["wiki-Vote"]
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        key = cache.key(a, None, 4)
        cache.put(key, chip.compile(a, tile_size=4))
        assert list(tmp_path.glob("*.pkl"))
        fresh = ProgramCache(capacity=4, cache_dir=tmp_path)
        assert fresh.get(key) is not None
        assert fresh.disk_hits == 1

    def test_rejects_file_as_cache_dir(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            ProgramCache(cache_dir=blocker)


class TestDiskEviction:
    """The on-disk tier is bounded: spills sweep oldest-mtime entries."""

    def test_sweep_evicts_oldest_entry_over_cap(self, tmp_path):
        import os

        cache = ProgramCache(capacity=4, cache_dir=tmp_path,
                             max_disk_bytes=None)
        cache.put(("key", 0), "program-0")
        oldest = cache._disk_path(("key", 0))
        entry_bytes = oldest.stat().st_size
        os.utime(oldest, (1, 1))  # make it ancient
        cache.max_disk_bytes = int(entry_bytes * 1.5)  # room for one entry
        cache.put(("key", 1), "program-1")
        assert not oldest.exists()
        assert cache._disk_path(("key", 1)).exists()
        assert cache.disk_evictions >= 1
        assert cache.stats()["disk_entries"] == 1

    def test_disk_hit_touch_protects_entry_from_sweep(self, tmp_path):
        import os

        writer = ProgramCache(capacity=4, cache_dir=tmp_path,
                              max_disk_bytes=None)
        writer.put(("key", 0), "program-0")
        writer.put(("key", 1), "program-1")
        hot = writer._disk_path(("key", 0))
        cold = writer._disk_path(("key", 1))
        os.utime(hot, (1, 1))
        os.utime(cold, (2, 2))
        # A fresh process hits entry 0 on disk, touching its mtime.
        reader = ProgramCache(capacity=4, cache_dir=tmp_path,
                              max_disk_bytes=None)
        assert reader.get(("key", 0)) == "program-0"
        entry_bytes = hot.stat().st_size
        reader.max_disk_bytes = int(entry_bytes * 2.5)  # room for two
        reader.put(("key", 2), "program-2")
        assert hot.exists()       # recently used: survives
        assert not cold.exists()  # oldest mtime: swept

    def test_oversized_newest_entry_survives(self, tmp_path):
        # A single program larger than the cap must stay cached; the sweep
        # only evicts older entries.
        cache = ProgramCache(capacity=2, cache_dir=tmp_path, max_disk_bytes=1)
        cache.put(("key", 0), "program-0")
        assert cache._disk_path(("key", 0)).exists()

    def test_unbounded_tier_never_sweeps(self, tmp_path):
        cache = ProgramCache(capacity=8, cache_dir=tmp_path,
                             max_disk_bytes=None)
        for i in range(5):
            cache.put(("key", i), f"program-{i}")
        assert cache.stats()["disk_entries"] == 5
        assert cache.disk_evictions == 0

    def test_clear_disk_and_stats(self, tmp_path):
        cache = ProgramCache(capacity=4, cache_dir=tmp_path)
        cache.put(("key", 0), "program-0")
        cache.put(("key", 1), "program-1")
        stats = cache.disk_stats()
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] > 0
        assert cache.clear_disk() == 2
        assert cache.disk_stats()["disk_entries"] == 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_clear_disk_without_dir_is_a_noop(self):
        assert ProgramCache(capacity=2).clear_disk() == 0


class TestRunBatch:
    def test_repeated_jobs_hit_the_compile_cache(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label=f"req-{i}")
                 for i in range(3)]
        batch = run_batch(chip, specs)
        assert batch.metrics["jobs"] == 3
        assert batch.metrics["cache_hits"] == 2
        assert [part.cache_hit for part in batch.parts] == [False, True, True]
        # Cached programs are shared objects, not recompiles.
        programs = {id(part.program) for part in batch.parts}
        assert len(programs) == 1

    def test_distinct_operands_compile_separately(self, chip, graphs):
        batch = run_batch(chip, [SpGEMMSpec(a=a) for a in graphs.values()])
        assert batch.metrics["cache_hits"] == 0
        assert batch.metrics["jobs"] == 2

    def test_accepts_bare_matrices_and_jobs(self, chip, graphs):
        a = graphs["facebook"]
        specs = [SpGEMMSpec(a=a), SpGEMMSpec(a=a, label="explicit")]
        batch = run_batch(chip, specs, backend="functional")
        assert batch.metrics["jobs"] == 2
        assert batch.metrics["cache_hits"] == 1
        assert [part.label for part in batch.parts] == ["spgemm", "explicit"]

    def test_outputs_are_correct_per_job(self, chip, graphs):
        specs = [SpGEMMSpec(a=a, label=name) for name, a in graphs.items()]
        batch = run_batch(chip, specs)
        for part, (name, a) in zip(batch.parts, graphs.items()):
            dense = a.to_dense()
            assert np.allclose(part.output.to_dense(), dense @ dense), name

    def test_aggregates_and_rows(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label="w0"),
                 SpGEMMSpec(a=graphs["wiki-Vote"], label="w1")]
        batch = run_batch(chip, specs)
        assert batch.metrics["jobs"] == 2
        assert batch.provenance.backend == "analytic"
        assert batch.metrics["total_cycles"] == pytest.approx(
            sum(part.report.cycles for part in batch.parts))
        assert batch.metrics["total_partial_products"] == 2 * \
            batch.parts[0].program.total_partial_products
        rows = [part.as_row() for part in batch.parts]
        assert rows[0]["label"] == "w0"
        assert rows[1]["cache_hit"] is True

    def test_metrics_are_sums_over_parts(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label="w"),
                 SpGEMMSpec(a=graphs["facebook"], label="f"),
                 SpGEMMSpec(a=graphs["wiki-Vote"], shards=2, label="ws")]
        batch = run_batch(chip, specs)
        parts = batch.parts
        assert batch.metrics == {
            "jobs": len(parts),
            "total_cycles": sum(p.metrics["cycles"] for p in parts),
            "total_partial_products": sum(p.metrics["partial_products"]
                                          for p in parts),
            "total_energy_j": round(sum(p.energy_j for p in parts), 9),
            "cache_hits": sum(p.cache_hit for p in parts),
        }
        assert batch.energy_j == sum(p.energy_j for p in parts)
        assert batch.power_w == max(p.power_w for p in parts)
        assert batch.output is None

    def test_executor_recorded_in_provenance(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label=str(i))
                 for i in range(2)]
        batch = run_batch(chip, specs, executor="thread", workers=2)
        assert batch.provenance.executor == "thread"
        assert batch.metrics["jobs"] == 2
        assert batch.provenance.wall_time_s > 0

    def test_functional_backend_reports_zero_cycles(self, chip, graphs):
        batch = run_batch(chip, [SpGEMMSpec(a=graphs["facebook"])],
                          backend="functional")
        assert batch.metrics["total_cycles"] == 0
        assert batch.parts[0].report is None

    def test_tile_size_is_part_of_the_cache_key(self, chip, graphs):
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"], label="t4", tile_size=4),
                 SpGEMMSpec(a=graphs["wiki-Vote"], label="t2", tile_size=2)]
        batch = run_batch(chip, specs)
        assert batch.metrics["cache_hits"] == 0
        tiles = [part.program.tile_size for part in batch.parts]
        assert tiles == [4, 2]

    def test_queue_survives_across_batches(self, chip, graphs):
        # A ProgramCache handed to successive sessions keeps its programs.
        cache = ProgramCache()
        specs = [SpGEMMSpec(a=graphs["wiki-Vote"])]
        first = run_batch(chip, specs, cache=cache)
        second = run_batch(chip, specs, cache=cache)
        assert first.metrics["cache_hits"] == 0
        assert second.metrics["cache_hits"] == 1
        assert second.parts[0].program is first.parts[0].program
