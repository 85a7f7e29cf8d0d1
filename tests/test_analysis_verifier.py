"""Fault-injection tests for the static IR verifier (pass 1).

Each test mutates one :class:`ProgramArrays` field class — operand
offsets, ordering keys, rolling counters, slot/counter addresses — and
asserts the verifier reports the *precise* invariant that broke, not
just "something is wrong".
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.findings import VerificationError
from repro.analysis.verifier import (
    OFFSET_LIMIT,
    assert_program_valid,
    require_offset,
    verify_program,
)
from repro.compiler.lowering import compile_spgemm, compile_spgemm_loop
from repro.compiler.program import Program
from repro.datasets.suite import load_dataset


@pytest.fixture(scope="module")
def program():
    dataset = load_dataset("wiki-Vote", max_nodes=96, seed=0)
    return compile_spgemm(dataset.adjacency_csc(),
                          dataset.features(seed=7),
                          tile_size=4, source="verifier-test")


def mutate(program, **overrides):
    arrays = dataclasses.replace(program.arrays, **overrides)
    return Program(arrays=arrays, address_map=program.address_map,
                   shape=program.shape, tile_size=program.tile_size,
                   a_nnz=program.a_nnz, b_nnz=program.b_nnz,
                   total_partial_products=program.total_partial_products,
                   source=program.source)


def fired(program, level="full"):
    return {finding.check for finding in verify_program(program, level=level)}


class TestCleanPrograms:
    def test_compiled_program_verifies_clean(self, program):
        assert verify_program(program, level="full") == []
        assert verify_program(program, level="quick") == []

    def test_assert_program_valid_returns_program(self, program):
        assert assert_program_valid(program) is program

    def test_legacy_loop_program_verifies_clean(self):
        dataset = load_dataset("facebook", max_nodes=64, seed=1)
        legacy = compile_spgemm_loop(dataset.adjacency_csc(),
                                     dataset.features(seed=3), tile_size=2)
        assert verify_program(legacy) == []

    def test_unknown_level_rejected(self, program):
        with pytest.raises(ValueError, match="verify level"):
            verify_program(program, level="paranoid")


class TestOffsetFaults:
    def test_shifted_operand_address(self, program):
        bad = program.arrays.op_a_addr.copy()
        bad[3] += 4
        assert fired(mutate(program, op_a_addr=bad)) == {"operand-offsets"}

    def test_22bit_overflow(self, program):
        bad = program.arrays.op_b_data_addr.copy()
        bad[0] = OFFSET_LIMIT + 1
        assert fired(mutate(program, op_b_data_addr=bad)) \
            == {"offset-field-width"}

    def test_require_offset_limits(self):
        assert require_offset(OFFSET_LIMIT) == OFFSET_LIMIT
        with pytest.raises(ValueError, match="22-bit"):
            require_offset(OFFSET_LIMIT + 1, "a_data")


class TestOrderingFaults:
    def test_row_group_order_violation(self, program):
        groups = program.arrays.op_group.copy()
        groups[0], groups[-1] = groups[-1], groups[0]
        assert "row-group-order" in fired(mutate(program, op_group=groups))

    def test_reseed_flag_off_boundary(self, program):
        reseed = program.arrays.op_reseed.copy()
        reseed[0] = not reseed[0]
        assert fired(mutate(program, op_reseed=reseed)) \
            == {"reseed-boundaries"}


class TestCounterFaults:
    def test_tampered_rolling_counter_quick(self, program):
        counts = program.arrays.out_counts.copy()
        counts[0] += 1
        assert fired(mutate(program, out_counts=counts), level="quick") \
            == {"counter-histogram"}

    def test_swapped_counters_need_full_level(self, program):
        # Moving a contribution between slots keeps the total invariant;
        # only the full partial-product scatter catches it in the counter
        # check.  At quick level the numeric plan's per-slot histogram
        # already disagrees with the moved counters.
        counts = program.arrays.out_counts.copy()
        assert counts.size >= 2
        counts[0] += 1
        counts[1] -= 1
        if counts[1] < 1:
            pytest.skip("needs a slot with >= 2 contributions")
        bad = mutate(program, out_counts=counts)
        assert fired(bad, level="quick") == {"plan-histogram"}
        assert fired(bad, level="full") == {"counter-histogram"}


class TestAddressExclusivityFaults:
    def test_rotated_slot(self, program):
        slots = program.arrays.op_slot.copy()
        slots[0] = (slots[0] + 1) % program.arrays.output_nnz
        assert fired(mutate(program, op_slot=slots)) \
            == {"address-exclusivity"}

    def test_shifted_counter_address(self, program):
        addrs = program.arrays.op_counter_addr.copy()
        addrs[0] += 4
        assert fired(mutate(program, op_counter_addr=addrs)) \
            == {"address-exclusivity"}


class TestStructuralFaults:
    def test_truncated_column(self, program):
        assert fired(mutate(program, op_k=program.arrays.op_k[:-1])) \
            == {"column-alignment"}

    def test_wrong_dtype_column(self, program):
        wide = program.arrays.op_slot.astype(np.int64)
        assert fired(mutate(program, op_slot=wide)) == {"column-dtype"}

    def test_empty_slice(self, program):
        his = program.arrays.op_a_hi.copy()
        his[0] = program.arrays.op_a_lo[0]
        assert fired(mutate(program, op_a_hi=his)) == {"operand-slices"}

    def test_unsorted_output_keys(self, program):
        indices = program.arrays.out_indices.copy()
        indices[0], indices[1] = indices[1], indices[0]
        assert fired(mutate(program, out_indices=indices)) \
            == {"output-structure"}


class TestPlanFaults:
    def test_corrupted_slot_quick(self, program):
        slots = program.arrays.plan_slot.copy()
        slots[0] = (slots[0] + 1) % program.arrays.output_nnz
        bad = mutate(program, plan_slot=slots)
        assert fired(bad, level="quick") == {"plan-histogram"}
        assert fired(bad, level="full") == {"plan-histogram"}

    def test_swapped_slots_need_full_level(self, program):
        # Two partial products trade slots: every slot still receives as
        # many contributions as its counter says, but each lands on the
        # wrong output key.
        slots = program.arrays.plan_slot.copy()
        first = int(np.flatnonzero(slots != slots[0])[0])
        slots[0], slots[first] = slots[first], slots[0]
        bad = mutate(program, plan_slot=slots)
        assert fired(bad, level="quick") == set()
        findings = verify_program(bad, level="full")
        assert {f.check for f in findings} == {"plan-keys"}
        assert "partial product 0:" in findings[0].message

    def test_out_of_range_b_index(self, program):
        b_index = program.arrays.plan_b_index.copy()
        b_index[5] = program.arrays.b_cols.size
        findings = verify_program(mutate(program, plan_b_index=b_index),
                                  level="quick")
        assert {f.check for f in findings} == {"plan-range"}
        assert "plan_b_index" in findings[0].message

    def test_wrong_b_index_in_range_needs_full_level(self, program):
        b_index = program.arrays.plan_b_index.copy()
        b_index[0] = (b_index[0] + 1) % program.arrays.b_cols.size
        bad = mutate(program, plan_b_index=b_index)
        assert fired(bad, level="quick") == set()
        assert fired(bad, level="full") == {"plan-keys"}

    def test_truncated_plan(self, program):
        bad = mutate(program, plan_slot=program.arrays.plan_slot[:-1])
        findings = verify_program(bad, level="quick")
        assert {f.check for f in findings} == {"plan-length"}
        assert "plan_slot" in findings[0].message

    def test_widened_plan_column(self, program):
        wide = program.arrays.plan_slot.astype(np.int64)
        assert fired(mutate(program, plan_slot=wide), level="quick") \
            == {"column-dtype"}

    def test_operand_pointer_off_by_one(self, program):
        pointers = program.arrays.b_indptr.copy()
        pointers[1:-1] += 1
        pointers[-1] = program.arrays.b_cols.size
        assert fired(mutate(program, b_indptr=pointers), level="quick") \
            == {"operand-pointers"}

    def test_plan_rebuilt_after_pickle_verifies(self, program):
        import pickle

        restored = pickle.loads(pickle.dumps(program))
        assert restored.arrays.plan_slot is None
        assert verify_program(restored, level="full") == []
        np.testing.assert_array_equal(restored.arrays.plan_slot,
                                      program.arrays.plan_slot)
        np.testing.assert_array_equal(restored.arrays.plan_b_index,
                                      program.arrays.plan_b_index)


class TestErrorSurface:
    def test_assert_program_valid_raises_with_findings(self, program):
        counts = program.arrays.out_counts.copy()
        counts[0] += 1
        with pytest.raises(VerificationError) as excinfo:
            assert_program_valid(mutate(program, out_counts=counts))
        assert excinfo.value.findings
        assert excinfo.value.findings[0].pass_name == "ir"
        assert excinfo.value.findings[0].check == "counter-histogram"
