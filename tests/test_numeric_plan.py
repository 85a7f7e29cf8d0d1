"""Two-phase SpGEMM: the compiled numeric plan and its numeric phase.

The compiler fixes every partial product's output slot and B entry once
(:func:`repro.sparse.symbolic.numeric_plan`); warm analytic runs then only
gather, multiply and ``np.bincount``.  These tests pin the plan down:

* the analytic backend, the plan-less numpy kernels and the multichip
  backend agree byte for byte, and match the python reference loops;
* every way of building the plan (chunked expansion, block tables,
  binary search) gives the identical plan;
* the plan survives the program cache's disk tier and value rebinding.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.backends import get_backend
from repro.compiler.lowering import compile_spgemm
from repro.compiler.program import Program, rebind_b_values
from repro.core import NeuraChip, Session, SpGEMMSpec
from repro.core.runner import CACHE_SCHEMA_VERSION, ProgramCache
from repro.datasets import load_dataset
from repro.datasets.generators import barabasi_albert_graph
from repro.sparse import kernels, symbolic
from repro.sparse.convert import coo_to_csr, csr_to_csc
from repro.sparse.csr import CSRMatrix


def _valued(matrix: CSRMatrix, seed: int) -> CSRMatrix:
    """Same structure, values uniform in [0.5, 1.5) (not path counts)."""
    rng = np.random.default_rng(seed)
    return CSRMatrix(matrix.indptr, matrix.indices,
                     rng.uniform(0.5, 1.5, matrix.nnz), matrix.shape)


def _random(rng, shape, density) -> CSRMatrix:
    dense = (rng.random(shape) < density) * rng.uniform(0.5, 1.5, shape)
    return CSRMatrix.from_dense(dense)


@pytest.fixture(scope="module")
def graphs():
    wiki = load_dataset("wiki-Vote", max_nodes=96, seed=0).adjacency_csr()
    ba = coo_to_csr(barabasi_albert_graph(300, 4, seed=3))
    return [_valued(wiki, 1), _valued(ba, 2)]


def _compile(a: CSRMatrix, b: CSRMatrix | None = None, tile: int = 4):
    return compile_spgemm(csr_to_csc(a), a if b is None else b,
                          tile_size=tile)


def _analytic(program: Program, a=None, b=None) -> CSRMatrix:
    chip = NeuraChip("Tile-4")
    return get_backend("analytic").execute(
        program, chip._context("numpy"), a_csr=a, b_csr=b).output


def _assert_bytes(got: CSRMatrix, want: CSRMatrix) -> None:
    __tracebackhide__ = True
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def _assert_same_plan(got, want) -> None:
    __tracebackhide__ = True
    assert got.slot.dtype == want.slot.dtype
    assert got.b_index.dtype == want.b_index.dtype
    np.testing.assert_array_equal(got.slot, want.slot)
    np.testing.assert_array_equal(got.b_index, want.b_index)


class TestOutputs:
    def test_analytic_equals_numpy_kernel_bytes_and_reference(self, graphs):
        for a in graphs:
            program = _compile(a)
            output = _analytic(program, a, a)
            kernel = kernels.spgemm(a, a, "tiled_gustavson", "numpy")
            _assert_bytes(output, kernel.matrix)
            reference = kernels.spgemm(a, a, "row_wise", "python").matrix
            assert np.array_equal(output.indptr, reference.indptr)
            assert np.array_equal(output.indices, reference.indices)
            assert np.allclose(output.data, reference.data,
                               rtol=1e-12, atol=1e-12)

    def test_plan_keyword_matches_planless_kernel(self, graphs):
        a = graphs[1]
        plan = _compile(a).arrays.numeric_plan()
        for flow in kernels.DATAFLOWS:
            with_plan = kernels.spgemm(a, a, flow, "numpy", plan=plan)
            without = kernels.spgemm(a, a, flow, "numpy")
            _assert_bytes(with_plan.matrix, without.matrix)
            assert with_plan.partial_products == without.partial_products
            assert with_plan.accumulations == without.accumulations
            assert with_plan.extra == without.extra

    def test_plan_for_other_operands_rejected(self, graphs):
        plan = _compile(graphs[0]).arrays.numeric_plan()
        with pytest.raises(ValueError, match="numeric plan"):
            kernels.spgemm(graphs[1], graphs[1], plan=plan)

    def test_without_operands_goes_through_the_plan(self, graphs,
                                                    monkeypatch):
        a = graphs[0]
        program = _compile(a)
        with_operands = _analytic(program, a, a)

        def no_replay(self):
            raise AssertionError("dense macro-op replay")

        monkeypatch.setattr(Program, "reference_result", no_replay)
        _assert_bytes(_analytic(program), with_operands)


class TestEdgeCases:
    def test_empty_product(self):
        # A's entries all hit empty rows of B: zero partial products.
        a = CSRMatrix.from_dense(np.array([[0.0, 2.0], [0.0, 3.0]]))
        b = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        program = _compile(a, b)
        plan = program.arrays.numeric_plan()
        assert plan.n_partial_products == 0 and plan.nnz == 0
        output = _analytic(program, a, b)
        assert output.nnz == 0 and output.shape == (2, 2)
        _assert_bytes(_analytic(program), output)

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_single_node(self, value):
        a = CSRMatrix.from_dense(np.array([[value]]))
        program = _compile(a)
        output = _analytic(program, a, a)
        assert output.to_dense().tolist() == [[value * value]]
        assert program.arrays.numeric_plan().n_partial_products == a.nnz

    def test_rectangular_with_distinct_b(self):
        rng = np.random.default_rng(4)
        a = _random(rng, (30, 20), 0.2)
        b = _random(rng, (20, 45), 0.15)
        program = _compile(a, b)
        output = _analytic(program, a, b)
        _assert_bytes(output, kernels.spgemm(a, b).matrix)
        assert np.allclose(output.to_dense(), a.to_dense() @ b.to_dense())
        _assert_bytes(_analytic(program), output)


class TestPlanBuild:
    def test_int32_columns(self, graphs):
        plan = _compile(graphs[1]).arrays.numeric_plan()
        assert plan.slot.dtype == np.int32
        assert plan.b_index.dtype == np.int32

    def test_chunked_symbolic_path_gives_identical_plan(self, graphs,
                                                        monkeypatch):
        a = graphs[1]
        whole = _compile(a).arrays
        monkeypatch.setattr(symbolic, "SYMBOLIC_CHUNK_PARTIAL_PRODUCTS", 97)
        chunked = _compile(a).arrays
        np.testing.assert_array_equal(chunked.out_indices, whole.out_indices)
        np.testing.assert_array_equal(chunked.out_counts, whole.out_counts)
        _assert_same_plan(chunked.numeric_plan(), whole.numeric_plan())

    def test_block_tables_and_binary_search_agree(self, graphs,
                                                  monkeypatch):
        a = graphs[1]
        sym = symbolic.symbolic_spgemm(a, a)
        default = symbolic.numeric_plan(a.indptr, a.indices, a, sym)
        # Many small row blocks, each table refilled per block.
        monkeypatch.setattr(symbolic, "PLAN_BLOCK_SLOTS", 700)
        monkeypatch.setattr(symbolic, "PLAN_MIN_PP_PER_BLOCK", 1)
        _assert_same_plan(symbolic.numeric_plan(a.indptr, a.indices, a,
                                                sym), default)
        # Rows wider than one table: binary search.
        monkeypatch.setattr(symbolic, "PLAN_BLOCK_SLOTS", 100)
        _assert_same_plan(symbolic.numeric_plan(a.indptr, a.indices, a,
                                                sym), default)
        # Too few partial products per block: binary search.
        monkeypatch.setattr(symbolic, "PLAN_BLOCK_SLOTS", 1 << 19)
        monkeypatch.setattr(symbolic, "PLAN_MIN_PP_PER_BLOCK", 1 << 30)
        _assert_same_plan(symbolic.numeric_plan(a.indptr, a.indices, a,
                                                sym), default)

    def test_blocks_straddling_chunks(self, graphs, monkeypatch):
        a = graphs[1]
        sym = symbolic.symbolic_spgemm(a, a)
        default = symbolic.numeric_plan(a.indptr, a.indices, a, sym)
        monkeypatch.setattr(symbolic, "SYMBOLIC_CHUNK_PARTIAL_PRODUCTS", 501)
        monkeypatch.setattr(symbolic, "PLAN_BLOCK_SLOTS", 3000)
        monkeypatch.setattr(symbolic, "PLAN_MIN_PP_PER_BLOCK", 1)
        _assert_same_plan(symbolic.numeric_plan(a.indptr, a.indices, a,
                                                sym), default)


class TestSharing:
    def test_multichip_shards(self, graphs):
        a = graphs[0]
        with Session("Tile-4", backend="analytic") as session:
            single = session.run(SpGEMMSpec(a=a, verify=False)).output
        for chips in (2, 3):
            with Session("Tile-4", backend="multichip",
                         chips=chips) as session:
                multi = session.run(SpGEMMSpec(a=a, verify=False)).output
            _assert_bytes(multi, single)
        _assert_bytes(single, kernels.spgemm(a, a).matrix)

    def test_concurrent_runs_on_one_cached_program(self, graphs):
        a = graphs[1]
        with Session("Tile-4", backend="analytic") as session:
            first = session.run(SpGEMMSpec(a=a, verify=False))
            outputs: list = []
            errors: list = []

            def worker():
                try:
                    for _ in range(5):
                        result = session.run(SpGEMMSpec(a=a, verify=False))
                        assert result.provenance.cache_hit
                        outputs.append(result.output)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(outputs) == 20
        for output in outputs:
            _assert_bytes(output, first.output)

    def test_rebind_shares_plan_arrays(self, graphs):
        a = graphs[0]
        program = _compile(a)
        b = _valued(a, 9)
        rebound = rebind_b_values(program, b)
        assert rebound.arrays.plan_slot is program.arrays.plan_slot
        assert rebound.arrays.plan_b_index is program.arrays.plan_b_index
        _assert_bytes(_analytic(rebound, a, b), kernels.spgemm(a, b).matrix)


class TestCacheSchema:
    def test_schema_version(self):
        assert CACHE_SCHEMA_VERSION == 4

    def test_disk_round_trip_keeps_plan(self, graphs, tmp_path):
        a = graphs[0]
        program = _compile(a)
        key = ("unit", "spgemm", "a", "a", 4)
        ProgramCache(4, cache_dir=tmp_path).put(key, program)
        reader = ProgramCache(4, cache_dir=tmp_path)
        loaded = reader.get(key)
        assert loaded is not None and loaded is not program
        assert reader.disk_hits == 1 and reader.verify_failed == 0
        _assert_same_plan(loaded.arrays.numeric_plan(),
                          program.arrays.numeric_plan())
        _assert_bytes(_analytic(loaded, a, a), _analytic(program, a, a))

    def test_v3_file_is_a_miss(self, graphs, tmp_path):
        program = _compile(graphs[0])
        cache = ProgramCache(4, cache_dir=tmp_path)
        key = ("unit", "spgemm", "a", "a", 4)
        path = cache._disk_path(key)
        with path.open("wb") as handle:
            pickle.dump((3, key, program), handle)
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.verify_failed == 0
        assert not path.exists()
