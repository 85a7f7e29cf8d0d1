"""Symbolic (structure-only) SpGEMM.

The rolling-eviction mechanism of NeuraChip (Section 3.4) relies on a
per-output-element counter: the number of partial products that will be
accumulated into each non-zero of C = A @ B.  The NeuraCompiler obtains
these counters with a symbolic pass over the operand structures, which is
exactly what this module implements.

The pass is *columnar*: its result is a CSR-shaped structure-of-arrays
(``indptr`` / ``indices`` / ``counts``) rather than a ``(row, col) -> count``
dict, computed with the same ``np.repeat`` / cumulative-offset expansion the
vectorized SpGEMM kernels use (:mod:`repro.sparse.kernels`), so no Python
loop ever touches a partial product.  Dict-style accessors are kept as thin
lazy views for compatibility with existing callers.

The module also compiles the *numeric plan* (:func:`numeric_plan`): the
output slot and B operand entry of every partial product, in Gustavson
row-major order.  It is the compile-time half of the paper's split between
the multiply phase (NeuraCore) and the hash-accumulate phase (NeuraMem),
whose accumulate targets are fixed by this symbolic pass; the numeric half
(:mod:`repro.sparse.kernels`) is then one gather-multiply and one
``np.bincount`` per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

#: Cap on partial products expanded per reduction chunk (~256 MiB of int64
#: keys); above this the pass reduces chunk-by-chunk so peak memory stays
#: bounded by the chunk size plus the accumulated per-chunk unique sets,
#: instead of the full O(total_partial_products) expansion.
SYMBOLIC_CHUNK_PARTIAL_PRODUCTS = 1 << 25

#: Entries of the dense slot table :func:`numeric_plan` resolves keys in,
#: one block of output rows at a time (2 MiB of int32, cache-resident).
PLAN_BLOCK_SLOTS = 1 << 19
#: Fewest partial products per busy row block for the block tables to pay
#: for their per-block overhead.  Sparser products (a few partial products
#: spread over a large output space) binary-search the slot keys instead.
PLAN_MIN_PP_PER_BLOCK = 256


def index_dtype(bound: int) -> type:
    """int32 when every index below ``bound`` fits in it, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def row_per_slot(indptr: np.ndarray, n_rows: int) -> np.ndarray:
    """Output row index of every slot (CSR indptr run-length expansion).

    This is *the* slot-order convention of the compile pipeline: counters,
    rolling-counter addresses and output write-back addresses are all laid
    out in the ascending ``row * n_cols + col`` order this expansion
    induces.  Every consumer (symbolic views, ``ProgramArrays`` flat keys,
    lazy dict views) must derive it from this one helper.
    """
    return np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))


@dataclass
class SymbolicProduct:
    """Structure of C = A @ B without numeric values, in CSR-shaped arrays.

    Attributes:
        shape: shape of C.
        indptr: int64 array of length ``n_rows + 1``; output row ``i``
            occupies the half-open slice ``indices[indptr[i]:indptr[i+1]]``.
        indices: int64 column index per output non-zero, sorted within each
            row — the canonical (row, col) slot order the compiler lays
            counters and output elements out in.
        counts: int64 rolling counter per output non-zero (number of partial
            products accumulated into that element), aligned with
            ``indices``.
        total_partial_products: total count of scalar multiply results
            produced by the multiplication phase (the ``pp_interim`` of
            Equation 1).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    total_partial_products: int
    _entries: dict | None = field(default=None, repr=False, compare=False)
    _flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        """Number of non-zeros in the output matrix."""
        return int(self.indices.size)

    def _row_per_slot(self) -> np.ndarray:
        """Output row index of every slot (indptr run-length expansion)."""
        return row_per_slot(self.indptr, self.shape[0])

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Dict view mapping (row, col) -> rolling counter (lazily built).

        Kept for compatibility; the arrays are the primary representation.
        """
        if self._entries is None:
            rows = self._row_per_slot()
            self._entries = dict(zip(zip(rows.tolist(), self.indices.tolist()),
                                     self.counts.tolist()))
        return self._entries

    def counter(self, row: int, col: int) -> int:
        """Rolling counter for output element (row, col); 0 if structurally zero."""
        if not 0 <= row < self.shape[0]:
            return 0
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        hit = lo + int(np.searchsorted(self.indices[lo:hi], col))
        if hit < hi and self.indices[hit] == col:
            return int(self.counts[hit])
        return 0

    def counters_for_row(self, row: int) -> dict[int, int]:
        """All column -> counter pairs for one output row ({} if out of range)."""
        if not 0 <= row < self.shape[0]:
            return {}
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        return dict(zip(self.indices[lo:hi].tolist(),
                        self.counts[lo:hi].tolist()))

    def row_nnz_counts(self) -> np.ndarray:
        """Per-row output non-zero counts."""
        return np.diff(self.indptr)

    def flat_keys(self) -> np.ndarray:
        """Flattened output coordinates ``row * n_cols + col`` per slot,
        ascending — the compiler's slot-lookup index (built once)."""
        if self._flat is None:
            self._flat = self._row_per_slot() * self.shape[1] + self.indices
        return self._flat


@dataclass(frozen=True)
class NumericPlan:
    """Where every partial product of C = A @ B goes (structure only).

    Partial products are enumerated in Gustavson row-major order: A's
    entries in CSR order, each ``A[i, k]`` paired with row ``k`` of B in
    order.  Partial product ``p`` multiplies its A entry by B entry
    ``b_index[p]`` (a CSR position) and accumulates into output slot
    ``slot[p]``.  Within an output row the inner index ``k`` ascends, so
    summing in plan order sums every output in ascending-``k`` order — the
    order the reference loops accumulate in.

    Attributes:
        shape: shape of C.
        indptr / indices: output structure in the symbolic pass's
            ascending slot order (slot ``s`` is ``(row, indices[s])``).
        slot: output slot per partial product.
        b_index: B entry per partial product.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    b_index: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of output slots."""
        return int(self.indices.size)

    @property
    def n_partial_products(self) -> int:
        return int(self.slot.size)


def _entry_chunks(ends: np.ndarray, total: int) -> list[tuple[int, int]]:
    """Cut A entries into ranges that expand to about one
    :data:`SYMBOLIC_CHUNK_PARTIAL_PRODUCTS` chunk of partial products each.

    ``ends`` is the cumulative partial-product count per entry.  Cuts fall
    on entry boundaries, so a single entry may exceed the cap; a chunk
    always advances by at least one entry.
    """
    if total <= SYMBOLIC_CHUNK_PARTIAL_PRODUCTS:
        return [(0, int(ends.size))]
    targets = np.arange(SYMBOLIC_CHUNK_PARTIAL_PRODUCTS, total,
                        SYMBOLIC_CHUNK_PARTIAL_PRODUCTS, dtype=np.int64)
    cuts = [0, *(np.searchsorted(ends, targets, side="left") + 1),
            int(ends.size)]
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _expand_and_count(row_of_a: np.ndarray, k_of_a: np.ndarray,
                      rep: np.ndarray, ends: np.ndarray, b_csr: CSRMatrix,
                      n_cols: int, lo: int, hi: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Expand A entries ``[lo, hi)`` into flattened output coordinates and
    reduce them to (sorted unique keys, per-key counts).

    The gather rebases each B slice by the cumulative repeat counts plus a
    running position (the kernel layer's cumulative-offset expansion).
    """
    rep_c = rep[lo:hi]
    base = int(ends[lo - 1]) if lo else 0
    total_c = int(ends[hi - 1]) - base
    b_index = np.arange(total_c, dtype=np.int64) + base
    b_index += np.repeat(b_csr.indptr[k_of_a[lo:hi]] - ends[lo:hi] + rep_c,
                         rep_c)
    keys = np.repeat(row_of_a[lo:hi] * n_cols, rep_c)
    keys += b_csr.indices[b_index]
    return np.unique(keys, return_counts=True)


def _merge_unique_counts(parts: list[tuple[np.ndarray, np.ndarray]]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-chunk (unique keys, counts) pairs, summing counts of keys
    that appear in several chunks."""
    keys = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    boundaries = np.empty(keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return keys[starts], np.add.reduceat(counts, starts)


def _symbolic_from_pairs(row_of_a: np.ndarray, k_of_a: np.ndarray,
                         b_csr: CSRMatrix,
                         shape: tuple[int, int]) -> SymbolicProduct:
    """Shared vectorized core: expand every (A-entry, B-entry) pairing into
    a flattened output coordinate, then reduce to per-coordinate counts.

    ``row_of_a[e]`` / ``k_of_a[e]`` give the output row and inner index of
    A entry ``e`` (any entry order works — the reduction sorts).  Very
    high-bloat workloads (partial products far above
    :data:`SYMBOLIC_CHUNK_PARTIAL_PRODUCTS`) are reduced chunk by chunk so
    the transient expansion never materialises all partial products at
    once.
    """
    n_rows, n_cols = shape
    nb = b_csr.row_nnz_counts()
    rep = nb[k_of_a] if k_of_a.size else np.zeros(0, dtype=np.int64)
    total = int(rep.sum())
    if total == 0:
        return SymbolicProduct(shape=shape,
                               indptr=np.zeros(n_rows + 1, dtype=np.int64),
                               indices=np.zeros(0, dtype=np.int64),
                               counts=np.zeros(0, dtype=np.int64),
                               total_partial_products=0)
    ends = np.cumsum(rep)
    parts = [_expand_and_count(row_of_a, k_of_a, rep, ends, b_csr, n_cols,
                               lo, hi)
             for lo, hi in _entry_chunks(ends, total)]
    unique, counts = (parts[0] if len(parts) == 1
                      else _merge_unique_counts(parts))
    major = unique // n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=n_rows), out=indptr[1:])
    return SymbolicProduct(shape=shape, indptr=indptr,
                           indices=unique - major * n_cols,
                           counts=counts.astype(np.int64),
                           total_partial_products=total)


def symbolic_spgemm(a_csr: CSRMatrix, b_csr: CSRMatrix) -> SymbolicProduct:
    """Compute the structure and rolling counters of C = A @ B.

    Both operands are given row-major; the expansion enumerates exactly the
    (i, k, j) triples Gustavson's row order would touch and counts, for
    every output coordinate, how many of them land on it.

    Args:
        a_csr: left operand in CSR.
        b_csr: right operand in CSR.

    Returns:
        A :class:`SymbolicProduct` describing the output structure.

    Raises:
        ValueError: if the inner dimensions do not match.
    """
    if a_csr.shape[1] != b_csr.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a_csr.shape}, B is {b_csr.shape}")
    row_of_a = np.repeat(np.arange(a_csr.shape[0], dtype=np.int64),
                         a_csr.row_nnz_counts())
    return _symbolic_from_pairs(row_of_a, a_csr.indices, b_csr,
                                (a_csr.shape[0], b_csr.shape[1]))


def symbolic_spgemm_from_csc(a_csc: CSCMatrix, b_csr: CSRMatrix) -> SymbolicProduct:
    """Symbolic SpGEMM with A in CSC (the storage NeuraChip actually uses).

    Pairs the columns of A with the rows of B — the outer-product order in
    which the MMH instructions are generated — and produces the same
    counters as :func:`symbolic_spgemm` (the reduction is order-insensitive).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    k_of_a = np.repeat(np.arange(a_csc.shape[1], dtype=np.int64),
                       a_csc.col_nnz_counts())
    return _symbolic_from_pairs(a_csc.indices, k_of_a, b_csr,
                                (a_csc.shape[0], b_csr.shape[1]))


def numeric_plan(a_indptr: np.ndarray, a_indices: np.ndarray,
                 b_csr: CSRMatrix, symbolic: SymbolicProduct) -> NumericPlan:
    """Compile the partial product -> output slot map of C = A @ B.

    ``a_indptr`` / ``a_indices`` are A's structure in CSR form (row
    pointers, column indices sorted within each row); ``symbolic`` is the
    symbolic pass's result for the same product.  The build is sort-free
    and O(a_nnz + nnz + partial products) in time and memory:

    * each partial product's B entry comes from the cumulative-offset
      expansion the kernels and the symbolic pass share;
    * its slot comes from a dense table holding the slot ids of one block
      of output rows (:data:`PLAN_BLOCK_SLOTS` entries, never the whole
      ``n_rows * n_cols`` space), refilled block by block from the
      symbolic pass's ascending slot keys.  Products too sparse for the
      tables to pay off (:data:`PLAN_MIN_PP_PER_BLOCK`) and rows wider
      than one table binary-search the slot keys instead.

    Partial products are expanded chunk by chunk exactly like the symbolic
    pass (:data:`SYMBOLIC_CHUNK_PARTIAL_PRODUCTS`), so the transient
    expansion stays bounded; only the plan itself is O(partial products).
    Both plan arrays are int32 unless the output or B is too large.

    Raises:
        ValueError: if ``symbolic`` describes a different product.
    """
    n_rows, n_cols = symbolic.shape
    rep = b_csr.row_nnz_counts()[a_indices]
    ends = np.cumsum(rep)
    total = int(ends[-1]) if ends.size else 0
    if total != symbolic.total_partial_products:
        raise ValueError(
            f"symbolic product has {symbolic.total_partial_products} partial "
            f"products; the operands expand to {total}")
    plan = NumericPlan(shape=symbolic.shape, indptr=symbolic.indptr,
                       indices=symbolic.indices,
                       slot=np.empty(total, dtype=index_dtype(symbolic.nnz)),
                       b_index=np.empty(total, dtype=index_dtype(b_csr.nnz)))
    if total == 0:
        return plan
    flat = symbolic.flat_keys()
    key_dtype = index_dtype(n_rows * n_cols)
    row_keys = row_per_slot(a_indptr, n_rows) * n_cols
    b_cols = b_csr.indices.astype(key_dtype)
    # Partial products of output row r occupy [pp_ptr[r], pp_ptr[r + 1]).
    pp_ptr = np.concatenate(([0], ends))[a_indptr]
    blocks = _busy_blocks(pp_ptr, n_cols, total)
    table = (np.empty(min(blocks[0], n_rows) * n_cols, dtype=plan.slot.dtype)
             if blocks is not None else None)
    for lo, hi in _entry_chunks(ends, total):
        p0 = int(ends[lo - 1]) if lo else 0
        p1 = int(ends[hi - 1])
        rep_c = rep[lo:hi]
        work = index_dtype(max(p1 - p0, b_csr.nnz))
        b_index = plan.b_index[p0:p1]
        b_index[:] = np.arange(p1 - p0, dtype=work) + np.repeat(
            (b_csr.indptr[a_indices[lo:hi]] - ends[lo:hi] + rep_c
             + p0).astype(work), rep_c)
        keys = np.repeat(row_keys[lo:hi].astype(key_dtype), rep_c)
        keys += b_cols[b_index]
        if blocks is None:
            plan.slot[p0:p1] = np.searchsorted(flat, keys)
            continue
        block_rows, starts = blocks
        for r0 in starts:
            r1 = min(r0 + block_rows, n_rows)
            q0, q1 = max(int(pp_ptr[r0]), p0), min(int(pp_ptr[r1]), p1)
            if q0 >= q1:
                continue
            s0, s1 = int(symbolic.indptr[r0]), int(symbolic.indptr[r1])
            base = r0 * n_cols
            table[flat[s0:s1] - base] = np.arange(s0, s1,
                                                  dtype=table.dtype)
            plan.slot[q0:q1] = table[keys[q0 - p0:q1 - p0] - base]
    return plan


def _busy_blocks(pp_ptr: np.ndarray, n_cols: int, total: int
                 ) -> tuple[int, list[int]] | None:
    """``(block_rows, first row of every row block with partial
    products)`` for the dense-table lookup, or ``None`` when the lookup
    should binary-search instead (see :func:`numeric_plan`)."""
    if n_cols > PLAN_BLOCK_SLOTS:
        return None
    n_rows = pp_ptr.size - 1
    block_rows = PLAN_BLOCK_SLOTS // n_cols
    starts = np.arange(0, n_rows, block_rows)
    stops = np.minimum(starts + block_rows, n_rows)
    busy = starts[pp_ptr[stops] > pp_ptr[starts]]
    if busy.size > max(1, total // PLAN_MIN_PP_PER_BLOCK):
        return None
    return block_rows, busy.tolist()
