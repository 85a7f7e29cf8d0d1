"""Lowering: SpGEMM / GCN aggregation -> MMH macro-op stream.

The lowering follows Section 3.1 of the paper: the adjacency matrix is taken
in CSC, the feature matrix in CSR, and the output is produced one group of
``tile_size`` rows at a time (the paper's enhancement of Gustavson's
row-stationary order).  Within a row group, each column k of A that has
non-zeros in those rows contributes up to ``tile_size`` A-elements, which are
paired with up to ``tile_size`` elements of row k of B — one MMH instruction
per pairing, dispatching up to ``tile_size**2`` HACC instructions.

Processing whole row groups before moving on is what keeps hash lines short
lived: every contribution to an output element arrives while its row group is
being processed, so the rolling-eviction counter reaches zero quickly and the
HashPad stays small.  A symbolic pass provides the rolling counters placed in
memory for the NeuraCores to read (Algorithm 1, line 6).

Two compilers share this lowering contract:

* :func:`compile_spgemm` — the production path.  Row-group/tile expansion,
  operand offsets, output-slot assignment and rolling-counter addresses are
  all computed with ``np.repeat`` / ``cumsum`` / ``searchsorted`` over the
  CSR/CSC index arrays (no per-nonzero Python loop), emitting a columnar
  :class:`~repro.compiler.program.ProgramArrays` payload whose macro-ops
  materialize lazily.
* :func:`compile_spgemm_loop` — the original per-row-group Python loops,
  kept as the executable specification: the columnar compiler must produce
  byte-identical instruction encodings and identical macro-op streams
  (asserted by the equivalence test suite and the compiler benchmark).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.verifier import (
    OFFSET_LIMIT as _OFFSET_LIMIT,  # noqa: F401  (historical import surface)
    check_offset_arrays as _check_offset_arrays,
    require_offset as _require_offset,
)
from repro.arch.isa import MMHInstruction, Opcode
from repro.compiler.program import (
    AddressMap,
    ELEMENT_BYTES,
    MMHMacroOp,
    Program,
    ProgramArrays,
)
from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import (
    SymbolicProduct,
    numeric_plan,
    symbolic_spgemm_from_csc,
)

# The 22-bit MMH offset limit and its compile-time checks live in
# repro.analysis.verifier so the compiler and the static IR verifier can
# never drift apart; the private aliases keep this module's call sites
# and its historical import surface stable.


def _lower_columnar(a_csc: CSCMatrix, b_csr: CSRMatrix,
                    symbolic: SymbolicProduct, address_map: AddressMap,
                    tile_size: int, opcode: Opcode) -> ProgramArrays:
    """Vectorized row-group/tile expansion onto the columnar program IR.

    Works entirely on the operand index arrays:

    1. Every A entry (CSC order) is keyed by ``(row_group, k)``; a stable
       sort groups the entries into *segments* — the contiguous run of
       column ``k`` that falls inside one row group, exactly the A-tile the
       loop lowering builds row by row.
    2. Each segment fans out into ``ceil(nb[k] / tile_size)`` ops via
       ``np.repeat`` with a cumulative-offset tile index (the same
       expansion the SpGEMM kernels use for partial products).
    3. Rolling-counter addresses resolve through one ``searchsorted`` of
       each op's first (row, col) pair against the symbolic slot order.
    4. The numeric plan maps every partial product, in Gustavson row-major
       order, to its output slot and B entry; A's row-major order is a
       stable sort of the CSC entries by row.
    """
    n_inner = a_csc.shape[1]
    n_cols = b_csr.shape[1]
    a_nnz = a_csc.nnz
    int_like = np.int64

    # --- 1. (row_group, k) segments of A ------------------------------
    e_k = np.repeat(np.arange(n_inner, dtype=int_like),
                    a_csc.col_nnz_counts())
    e_group = a_csc.indices // tile_size
    order = np.argsort(e_group * n_inner + e_k, kind="stable")
    sorted_key = (e_group * n_inner + e_k)[order]
    if a_nnz:
        boundaries = np.empty(a_nnz, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundaries[1:])
        seg_starts = np.flatnonzero(boundaries)
    else:
        seg_starts = np.zeros(0, dtype=int_like)
    seg_lens = np.diff(np.append(seg_starts, a_nnz))
    # Within a column the rows are sorted, so a (group, k) segment is a
    # contiguous run of the CSC column; its first sorted element's original
    # position IS the operand offset of the whole A-tile.
    seg_pos = order[seg_starts]
    seg_k = e_k[seg_pos]
    seg_group = e_group[seg_pos]

    # --- 2. fan segments out into B tiles -----------------------------
    nb = b_csr.row_nnz_counts()
    seg_nb = nb[seg_k]
    keep = seg_nb > 0
    seg_pos, seg_lens = seg_pos[keep], seg_lens[keep]
    seg_k, seg_group, seg_nb = seg_k[keep], seg_group[keep], seg_nb[keep]
    n_b_tiles = -(-seg_nb // tile_size)
    total_ops = int(n_b_tiles.sum())

    cum_tiles = np.cumsum(n_b_tiles)
    op_seg = np.repeat(np.arange(seg_k.size, dtype=int_like), n_b_tiles)
    tile_in_seg = (np.arange(total_ops, dtype=int_like)
                   - np.repeat(cum_tiles - n_b_tiles, n_b_tiles))
    op_k = seg_k[op_seg]
    op_b_lo = b_csr.indptr[op_k] + tile_in_seg * tile_size
    op_b_hi = np.minimum(op_b_lo + tile_size, b_csr.indptr[op_k + 1])
    op_a_lo = seg_pos[op_seg]
    op_a_hi = op_a_lo + seg_lens[op_seg]
    op_group = seg_group[op_seg]

    op_reseed = np.zeros(total_ops, dtype=bool)
    if total_ops:
        np.not_equal(op_group[1:], op_group[:-1], out=op_reseed[:-1])
        op_reseed[-1] = True

    # --- 3. rolling-counter slots and operand addresses ----------------
    flat_keys = symbolic.flat_keys()
    first_flat = a_csc.indices[op_a_lo] * n_cols + b_csr.indices[op_b_lo]
    op_slot = np.searchsorted(flat_keys, first_flat).astype(int_like)
    op_a_addr = address_map.a_data_base + op_a_lo * ELEMENT_BYTES
    op_b_col_addr = address_map.b_col_ind_base + op_b_lo * ELEMENT_BYTES
    op_b_data_addr = address_map.b_data_base + op_b_lo * ELEMENT_BYTES
    op_counter_addr = address_map.roll_counter_base + op_slot * ELEMENT_BYTES
    _check_offset_arrays(a_data=op_a_addr, b_col_ind=op_b_col_addr,
                         b_data=op_b_data_addr, roll_counter=op_counter_addr)

    # --- 4. numeric plan ------------------------------------------------
    by_row = np.argsort(a_csc.indices, kind="stable")
    a_csr_indptr = np.zeros(a_csc.shape[0] + 1, dtype=int_like)
    np.cumsum(np.bincount(a_csc.indices, minlength=a_csc.shape[0]),
              out=a_csr_indptr[1:])
    plan = numeric_plan(a_csr_indptr, e_k[by_row], b_csr, symbolic)

    # Everything stored per-op or per-nonzero fits comfortably in 32 bits
    # (indices are matrix dimensions, addresses passed the 22-bit check),
    # so the persisted payload is downcast to halve spill/ship size.
    narrow = np.int32
    arrays = ProgramArrays(
        opcode=opcode, tile_size=tile_size, shape=symbolic.shape,
        out_indptr=symbolic.indptr,
        out_indices=symbolic.indices.astype(narrow),
        out_counts=symbolic.counts.astype(narrow),
        a_indptr=a_csc.indptr.copy(),
        a_rows=a_csc.indices.astype(narrow), a_values=a_csc.data.copy(),
        b_indptr=b_csr.indptr.copy(),
        b_cols=b_csr.indices.astype(narrow), b_values=b_csr.data.copy(),
        op_k=op_k.astype(narrow), op_group=op_group.astype(narrow),
        op_a_lo=op_a_lo.astype(narrow), op_a_hi=op_a_hi.astype(narrow),
        op_b_lo=op_b_lo.astype(narrow), op_b_hi=op_b_hi.astype(narrow),
        op_slot=op_slot.astype(narrow), op_reseed=op_reseed,
        op_a_addr=op_a_addr.astype(narrow),
        op_b_col_addr=op_b_col_addr.astype(narrow),
        op_b_data_addr=op_b_data_addr.astype(narrow),
        op_counter_addr=op_counter_addr.astype(narrow),
        plan_slot=plan.slot, plan_b_index=plan.b_index)
    # The int64 slot-key index is not pinned on the arrays: the numeric
    # plan already resolved every slot, and the simulators rebuild the
    # index on first use (ProgramArrays._flat_keys).
    return arrays


def compile_spgemm(a_csc: CSCMatrix, b_csr: CSRMatrix, tile_size: int = 4,
                   source: str = "spgemm") -> Program:
    """Compile C = A @ B into a NeuraChip program (columnar IR).

    Args:
        a_csc: left operand (adjacency matrix) in CSC.
        b_csr: right operand (feature matrix) in CSR.
        tile_size: MMH tile size; must be 1, 2, 4 or 8.
        source: workload label stored in the program metadata.

    Returns:
        A :class:`~repro.compiler.program.Program` backed by a
        :class:`~repro.compiler.program.ProgramArrays` payload; macro-ops
        materialize lazily when a simulator iterates them.

    Raises:
        ValueError: on dimension mismatch, unsupported tile size, or
            operand offsets overflowing the 22-bit MMH register fields.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    opcode = Opcode.mmh_for_tile(tile_size)

    symbolic = symbolic_spgemm_from_csc(a_csc, b_csr)
    address_map = AddressMap.layout(a_csc.nnz, b_csr.nnz, symbolic.nnz)
    arrays = _lower_columnar(a_csc, b_csr, symbolic, address_map,
                             tile_size, opcode)

    return Program(
        arrays=arrays,
        address_map=address_map,
        shape=symbolic.shape,
        tile_size=tile_size,
        a_nnz=a_csc.nnz,
        b_nnz=b_csr.nnz,
        total_partial_products=symbolic.total_partial_products,
        source=source,
        metadata={"n_row_groups": arrays.n_row_groups},
    )


def compile_spgemm_loop(a_csc: CSCMatrix, b_csr: CSRMatrix, tile_size: int = 4,
                        source: str = "spgemm") -> Program:
    """Reference loop compiler (the original per-row-group Python loops).

    Produces a fully materialized program that must match
    :func:`compile_spgemm` macro-op for macro-op and byte for byte; kept as
    the executable specification of the lowering and as the baseline of
    ``benchmarks/bench_compiler.py``.
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    opcode = Opcode.mmh_for_tile(tile_size)

    symbolic = symbolic_spgemm_from_csc(a_csc, b_csr)
    address_map = AddressMap.layout(a_csc.nnz, b_csr.nnz, symbolic.nnz)

    # Output elements are laid out in deterministic (row, col) order.
    output_addrs: dict[tuple[int, int], int] = {}
    for slot, key in enumerate(sorted(symbolic.entries)):
        output_addrs[key] = address_map.output_base + slot * ELEMENT_BYTES
    counter_addrs = {key: address_map.roll_counter_base + slot * ELEMENT_BYTES
                     for slot, key in enumerate(sorted(symbolic.entries))}

    a_csr = csc_to_csr(a_csc)
    mmh_ops: list[MMHMacroOp] = []
    sequence = 0
    n_rows = a_csc.shape[0]
    n_row_groups = 0
    for group_start in range(0, n_rows, tile_size):
        group_rows = range(group_start, min(group_start + tile_size, n_rows))
        # Column index k -> list of (row, value) elements of A within the group.
        column_segments: dict[int, list[tuple[int, float]]] = {}
        for i in group_rows:
            cols, vals = a_csr.row(i)
            for k, v in zip(cols.tolist(), vals.tolist()):
                column_segments.setdefault(k, []).append((i, float(v)))
        group_ops: list[MMHMacroOp] = []
        for k in sorted(column_segments):
            b_cols, b_vals = b_csr.row(k)
            if b_cols.size == 0:
                continue
            segment = column_segments[k]
            a_tile_rows = tuple(row for row, _val in segment)
            a_tile_vals = tuple(val for _row, val in segment)
            # The group's A elements occupy a contiguous run of column k in CSC.
            col_rows, _ = a_csc.col(k)
            a_offset_in_col = int(np.searchsorted(col_rows, a_tile_rows[0]))
            a_base_offset = (int(a_csc.indptr[k]) + a_offset_in_col) * ELEMENT_BYTES
            b_base_offset = int(b_csr.indptr[k]) * ELEMENT_BYTES
            for b_start in range(0, b_cols.size, tile_size):
                b_tile_cols = tuple(int(c) for c in b_cols[b_start:b_start + tile_size])
                b_tile_vals = tuple(float(v) for v in b_vals[b_start:b_start + tile_size])
                first_key = (a_tile_rows[0], b_tile_cols[0])
                instruction = MMHInstruction(
                    opcode=opcode,
                    base_addr=0,
                    a_data_addr=_require_offset(
                        address_map.a_data_base + a_base_offset, "a_data"),
                    b_col_ind_addr=_require_offset(
                        address_map.b_col_ind_base + b_base_offset
                        + b_start * ELEMENT_BYTES, "b_col_ind"),
                    b_data_addr=_require_offset(
                        address_map.b_data_base + b_base_offset
                        + b_start * ELEMENT_BYTES, "b_data"),
                    roll_counter_addr=_require_offset(
                        counter_addrs[first_key], "roll_counter"),
                )
                group_ops.append(MMHMacroOp(
                    opcode=opcode, k=k,
                    a_rows=a_tile_rows, a_values=a_tile_vals,
                    b_cols=b_tile_cols, b_values=b_tile_vals,
                    instruction=instruction, sequence=sequence,
                ))
                sequence += 1
        if group_ops:
            n_row_groups += 1
            # Mark the DRHM reseed boundary on the last op of the row group.
            last = group_ops[-1]
            group_ops[-1] = MMHMacroOp(
                opcode=last.opcode, k=last.k, a_rows=last.a_rows,
                a_values=last.a_values, b_cols=last.b_cols,
                b_values=last.b_values, instruction=last.instruction,
                reseed_after=True, sequence=last.sequence,
            )
            mmh_ops.extend(group_ops)

    return Program(
        mmh_ops=mmh_ops,
        counters=dict(symbolic.entries),
        output_addrs=output_addrs,
        address_map=address_map,
        shape=symbolic.shape,
        tile_size=tile_size,
        a_nnz=a_csc.nnz,
        b_nnz=b_csr.nnz,
        total_partial_products=symbolic.total_partial_products,
        source=source,
        metadata={"n_row_groups": n_row_groups},
    )


def compile_gcn_aggregation(adjacency_csc: CSCMatrix, features_csr: CSRMatrix,
                            tile_size: int = 4, dataset: str = "") -> Program:
    """Compile the aggregation phase of a GCN layer (A @ X) onto NeuraChip."""
    label = f"gcn-aggregation:{dataset}" if dataset else "gcn-aggregation"
    return compile_spgemm(adjacency_csc, features_csr, tile_size=tile_size,
                          source=label)
