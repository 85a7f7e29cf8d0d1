"""Pass 1 — the IR verifier: prove a compiled program well-formed.

Every check here is a vectorized numpy reduction over the columnar
:class:`~repro.compiler.program.ProgramArrays` payload — no macro-op is
ever materialized and nothing executes.  The invariants:

* **column alignment / dtypes** — every per-op column has length
  ``n_ops`` with the persisted narrow dtype; operand payloads agree.
* **operand slices** — every op's A/B tile slice is in-bounds, non-empty
  and no wider than the tile size.
* **operand offsets** — the architectural address columns land inside
  the operand regions of the :class:`~repro.compiler.program.AddressMap`
  layout *and* fit the 22-bit MMH register fields (Figure 7).  The
  22-bit limit lives here — the compiler's lowering imports it, so the
  compile-time check and the verifier can never drift apart.
* **row-group order** — ``(op_group, op_k)`` is lexicographically
  non-decreasing (the paper's row-stationary issue order) and the DRHM
  reseed flags sit exactly on the group boundaries.
* **output structure** — the symbolic CSR triple is canonical: monotone
  ``out_indptr``, strictly increasing flat slot keys, in-range columns,
  positive rolling counters.
* **counter histogram** — the rolling counters account for exactly the
  partial products the ops dispatch (total at ``level="quick"``,
  per-slot exact at ``level="full"``).
* **address exclusivity** — each HACC accumulation address is written
  only by ops sharing its ``(row, col)`` key: slot keys are unique,
  every op's counter address derives from its first pair's slot, and
  (at ``level="full"``) every expanded partial product lands on an
  existing slot.  This is the static race detector for the
  eviction-counter dataflow: two lanes can only collide on an
  accumulation address if they accumulate into the same output element,
  which is precisely what the rolling-eviction counter arbitrates.
* **numeric plan** — once everything above holds: the operand pointers
  are canonical and agree with every op's slices, the plan has one
  entry per partial product with slots and B entries in range, and its
  per-slot histogram equals the rolling counters (``level="quick"``).
  At ``level="full"`` every partial product's B entry and slot key equal
  its expanded ``(row, col)`` in Gustavson row-major order.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.findings import Finding, VerificationError
from repro.compiler.program import ELEMENT_BYTES, AddressMap, Program, ProgramArrays
from repro.sparse.symbolic import index_dtype

#: 22-bit register fields of the MMH instruction limit the per-instruction
#: operand offsets (Figure 7).  Shared by the compiler's lowering and the
#: verifier so the two checks can never disagree.
OFFSET_LIMIT = (1 << 22) - 1

#: Cap on partial products expanded per verification chunk at
#: ``level="full"`` (~128 MiB of int64 keys), mirroring the symbolic
#: pass's chunked reduction so verification never doubles peak memory.
VERIFY_CHUNK_PARTIAL_PRODUCTS = 1 << 24

#: Output shapes with ``rows * cols`` at or below this take the dense
#: histogram path in the full-level scatter (one ``bincount`` over the
#: flattened key space, ~64 MiB of int64 at the cap); larger shapes use
#: a searchsorted scatter against the sorted output keys instead.
_DENSE_SCATTER_KEYS = 1 << 23

#: The two verification depths: ``"quick"`` is O(n_ops + nnz) and skips
#: the partial-product expansion; ``"full"`` additionally scatters every
#: partial product onto its output slot and proves the per-slot counters
#: exact.
VERIFY_LEVELS = ("quick", "full")


def require_offset(offset: int, operand: str = "operand") -> int:
    """Validate an operand offset against the 22-bit MMH register field.

    Offsets used to be silently masked (``offset & OFFSET_LIMIT``), which
    aliased addresses on operands larger than 4 MiB of laid-out data; an
    overflowing offset is an error with a remediation hint.
    """
    if offset > OFFSET_LIMIT:
        raise ValueError(
            f"{operand} offset {offset} exceeds the 22-bit MMH register "
            f"field (max {OFFSET_LIMIT}); the laid-out operands are too "
            "large for one program's address space.  Row-sharding the "
            "workload (e.g. SpGEMMSpec(shards=N)) helps when the A/output "
            "regions dominate the layout; a large B operand is replicated "
            "into every shard and must be shrunk (fewer columns / sparser "
            "features) instead")
    return offset


def check_offset_arrays(**named_arrays: np.ndarray) -> None:
    """Vectorized overflow check over per-op address columns; raises
    ``ValueError`` (via :func:`require_offset`) on the first overflow."""
    for operand, addresses in named_arrays.items():
        if addresses.size and int(addresses.max()) > OFFSET_LIMIT:
            require_offset(int(addresses.max()), operand)


# ----------------------------------------------------------------------
# Finding helpers
# ----------------------------------------------------------------------
def _finding(check: str, source: str, message: str) -> Finding:
    return Finding(pass_name="ir", check=check, location=source or "program",
                   message=message)


def _first_bad(mask: np.ndarray) -> int:
    """Index of the first True in a violation mask."""
    return int(np.flatnonzero(mask)[0])


# ----------------------------------------------------------------------
# Stage A: shape / dtype / slice sanity (later stages index through these)
# ----------------------------------------------------------------------
_OP_COLUMNS = ("op_k", "op_group", "op_a_lo", "op_a_hi", "op_b_lo",
               "op_b_hi", "op_slot", "op_a_addr", "op_b_col_addr",
               "op_b_data_addr", "op_counter_addr")


def _check_layout(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    n_ops = int(arrays.op_k.size)
    for name in _OP_COLUMNS:
        column = getattr(arrays, name)
        if column.size != n_ops:
            findings.append(_finding(
                "column-alignment", source,
                f"per-op column {name} has {column.size} entries; "
                f"program order has {n_ops} ops"))
        elif column.dtype != np.int32:
            findings.append(_finding(
                "column-dtype", source,
                f"per-op column {name} is {column.dtype}; the persisted "
                "payload must be int32"))
    if arrays.op_reseed.size != n_ops:
        findings.append(_finding(
            "column-alignment", source,
            f"op_reseed has {arrays.op_reseed.size} entries for {n_ops} ops"))
    elif arrays.op_reseed.dtype != np.bool_:
        findings.append(_finding(
            "column-dtype", source,
            f"op_reseed is {arrays.op_reseed.dtype}; expected bool"))
    if arrays.out_indices.size != arrays.out_counts.size:
        findings.append(_finding(
            "column-alignment", source,
            f"out_indices ({arrays.out_indices.size}) and out_counts "
            f"({arrays.out_counts.size}) disagree on output nnz"))
    if arrays.out_indptr.size != arrays.shape[0] + 1:
        findings.append(_finding(
            "column-alignment", source,
            f"out_indptr has {arrays.out_indptr.size} entries for "
            f"{arrays.shape[0]} output rows"))
    if arrays.a_rows.size != arrays.a_values.size:
        findings.append(_finding(
            "column-alignment", source,
            f"a_rows ({arrays.a_rows.size}) and a_values "
            f"({arrays.a_values.size}) disagree on A nnz"))
    if arrays.b_cols.size != arrays.b_values.size:
        findings.append(_finding(
            "column-alignment", source,
            f"b_cols ({arrays.b_cols.size}) and b_values "
            f"({arrays.b_values.size}) disagree on B nnz"))
    return findings


def _check_slices(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    tile = int(arrays.tile_size)
    for name, lo, hi, size in (
            ("A", arrays.op_a_lo, arrays.op_a_hi, arrays.a_rows.size),
            ("B", arrays.op_b_lo, arrays.op_b_hi, arrays.b_cols.size)):
        # int32 throughout: hi - lo can only wrap when lo < 0 or
        # hi > size, and either already sets `bad` through the or-chain.
        bad = (lo < 0) | (hi > size) | (hi <= lo) | (hi - lo > tile)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-slices", source,
                f"op {index}: {name}-tile slice [{int(lo[index])}, "
                f"{int(hi[index])}) violates 0 <= lo < hi <= {size} with "
                f"width <= tile_size={tile}"))
    return findings


# ----------------------------------------------------------------------
# Stage B: addresses, ordering, output structure, counters, exclusivity
# ----------------------------------------------------------------------
def _check_offsets(arrays: ProgramArrays, address_map: AddressMap,
                   source: str) -> list[Finding]:
    findings: list[Finding] = []
    regions = address_map.regions()
    # Address arithmetic stays in the columns' native int32 when the whole
    # address map plus one tile provably fits (stage A bounded lo within
    # [0, operand size], so start + lo * 4 cannot wrap under this gate);
    # oversized maps fall back to int64.
    max_nnz = max(arrays.a_rows.size, arrays.b_cols.size)
    narrow = (int(address_map.total_bytes) + (max_nnz + 8) * ELEMENT_BYTES
              < np.iinfo(np.int32).max)
    work = np.int32 if narrow else np.int64
    columns = (
        ("op_a_addr", arrays.op_a_addr, arrays.op_a_lo, arrays.op_a_hi,
         "a_data"),
        ("op_b_col_addr", arrays.op_b_col_addr, arrays.op_b_lo,
         arrays.op_b_hi, "b_col_ind"),
        ("op_b_data_addr", arrays.op_b_data_addr, arrays.op_b_lo,
         arrays.op_b_hi, "b_data"),
    )
    # Fast path: one stacked comparison across all three operand columns;
    # the per-column loop below only runs to name the failing column.
    # Wraparound in tile_end when addr exceeds OFFSET_LIMIT is harmless:
    # the field-width clause already marks that op bad.
    addr3 = np.stack([c[1] for c in columns])
    lo3 = np.stack([c[2] for c in columns]).astype(work, copy=False)
    hi3 = np.stack([c[3] for c in columns]).astype(work, copy=False)
    start3 = np.array([[regions[c[4]][0]] for c in columns], dtype=work)
    end3 = np.array([[regions[c[4]][1]] for c in columns], dtype=work)
    bad3 = ((addr3 < 0) | (addr3 > OFFSET_LIMIT)
            | (addr3 != start3 + lo3 * ELEMENT_BYTES)
            | (addr3.astype(work, copy=False)
               + (hi3 - lo3) * ELEMENT_BYTES > end3))
    clean = not bad3.any()
    for name, addr, lo, hi, region in () if clean else columns:
        over = (addr < 0) | (addr > OFFSET_LIMIT)
        if np.any(over):
            index = _first_bad(over)
            findings.append(_finding(
                "offset-field-width", source,
                f"op {index}: {name}={int(addr[index])} does not fit "
                f"the 22-bit MMH register field (max {OFFSET_LIMIT})"))
            continue
        start, end = regions[region]
        lo = lo.astype(work, copy=False)
        expected = start + lo * ELEMENT_BYTES
        tile_end = (addr.astype(work, copy=False)
                    + (hi.astype(work, copy=False) - lo) * ELEMENT_BYTES)
        bad = (addr != expected) | (tile_end > end)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-offsets", source,
                f"op {index}: {name}={int(addr[index])} does not match "
                f"the {region} region [{start}, {end}) of the address map "
                f"(expected {int(expected[index])}, tile ends at "
                f"{int(tile_end[index])})"))
    counter = arrays.op_counter_addr.astype(work, copy=False)
    over = (counter < 0) | (counter > OFFSET_LIMIT)
    if np.any(over):
        index = _first_bad(over)
        findings.append(_finding(
            "offset-field-width", source,
            f"op {index}: op_counter_addr={int(counter[index])} does not "
            f"fit the 22-bit MMH register field (max {OFFSET_LIMIT})"))
    else:
        start, end = regions["roll_counter"]
        bad = (counter < start) | (counter + ELEMENT_BYTES > end)
        if np.any(bad):
            index = _first_bad(bad)
            findings.append(_finding(
                "operand-offsets", source,
                f"op {index}: op_counter_addr={int(counter[index])} lies "
                f"outside the roll_counter region [{start}, {end})"))
    return findings


def _check_row_groups(arrays: ProgramArrays, source: str) -> list[Finding]:
    findings: list[Finding] = []
    if arrays.n_ops < 1:
        return findings
    group = arrays.op_group.astype(np.int64)
    k = arrays.op_k.astype(np.int64)
    group_step = np.diff(group)
    bad = (group_step < 0) | ((group_step == 0) & (np.diff(k) < 0))
    if np.any(bad):
        index = _first_bad(bad)
        findings.append(_finding(
            "row-group-order", source,
            f"ops {index}->{index + 1}: row-group keys "
            f"({int(group[index])}, {int(k[index])}) -> "
            f"({int(group[index + 1])}, {int(k[index + 1])}) are not "
            "lexicographically non-decreasing"))
    expected_reseed = np.empty(arrays.n_ops, dtype=bool)
    expected_reseed[-1] = True
    np.not_equal(group[1:], group[:-1], out=expected_reseed[:-1])
    mismatch = arrays.op_reseed != expected_reseed
    if np.any(mismatch):
        index = _first_bad(mismatch)
        findings.append(_finding(
            "reseed-boundaries", source,
            f"op {index}: op_reseed={bool(arrays.op_reseed[index])} but the "
            f"row-group boundary mask says {bool(expected_reseed[index])}"))
    return findings


def _check_output_structure(arrays: ProgramArrays,
                            source: str) -> list[Finding]:
    findings: list[Finding] = []
    indptr = arrays.out_indptr
    nnz = arrays.out_indices.size
    if int(indptr[0]) != 0 or int(indptr[-1]) != nnz:
        findings.append(_finding(
            "output-structure", source,
            f"out_indptr spans [{int(indptr[0])}, {int(indptr[-1])}] for "
            f"{nnz} output slots (must span [0, nnz])"))
        return findings
    if np.any(np.diff(indptr) < 0):
        findings.append(_finding(
            "output-structure", source, "out_indptr is not non-decreasing"))
        return findings
    indices = arrays.out_indices.astype(np.int64)
    n_cols = arrays.shape[1]
    if nnz and (int(indices.min()) < 0 or int(indices.max()) >= n_cols):
        findings.append(_finding(
            "output-structure", source,
            f"out_indices outside [0, {n_cols}) for shape {arrays.shape}"))
        return findings
    flat = arrays._flat_keys()
    if nnz > 1 and np.any(np.diff(flat) <= 0):
        index = _first_bad(np.diff(flat) <= 0)
        findings.append(_finding(
            "output-structure", source,
            f"slots {index}->{index + 1}: flat output keys "
            f"{int(flat[index])} -> {int(flat[index + 1])} are not "
            "strictly increasing (duplicate or unsorted output slot)"))
    if nnz and int(arrays.out_counts.min()) < 1:
        index = _first_bad(arrays.out_counts < 1)
        findings.append(_finding(
            "counter-histogram", source,
            f"slot {index}: rolling counter "
            f"{int(arrays.out_counts[index])} < 1 (every stored output "
            "element accumulates at least one partial product)"))
    return findings


def _op_chunks(pp_per_op: np.ndarray) -> list[tuple[int, int]]:
    """Cut ``[0, n_ops)`` into ranges of at most roughly
    :data:`VERIFY_CHUNK_PARTIAL_PRODUCTS` expanded partial products
    (``pp_per_op`` may count per A entry just as well as per op)."""
    total = int(pp_per_op.sum())
    n_ops = int(pp_per_op.size)
    if total <= VERIFY_CHUNK_PARTIAL_PRODUCTS or n_ops == 0:
        return [(0, n_ops)] if n_ops else []
    ends = np.cumsum(pp_per_op)
    targets = np.arange(VERIFY_CHUNK_PARTIAL_PRODUCTS, total,
                        VERIFY_CHUNK_PARTIAL_PRODUCTS, dtype=np.int64)
    cuts = [0, *(np.searchsorted(ends, targets, side="left") + 1), n_ops]
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _expanded_flat_keys(arrays: ProgramArrays, op_lo: int,
                        op_hi: int) -> np.ndarray:
    """Flattened output coordinates of every partial product dispatched by
    ops ``[op_lo, op_hi)`` — the same cumulative-offset expansion the
    SpGEMM kernels and the symbolic pass use.  Index/key arithmetic stays
    in int32 when the flattened key space provably fits (the common case),
    halving the memory traffic of the repeats below."""
    n_cols = arrays.shape[1]
    key_space = int(arrays.shape[0]) * int(n_cols)
    dtype = np.int32 if key_space < np.iinfo(np.int32).max else np.int64
    a_lo = arrays.op_a_lo[op_lo:op_hi]
    n_a = arrays.op_a_hi[op_lo:op_hi] - a_lo
    b_lo = arrays.op_b_lo[op_lo:op_hi]
    n_b = arrays.op_b_hi[op_lo:op_hi] - b_lo
    total_a = int(n_a.sum(dtype=np.int64))
    ends_a = np.cumsum(n_a, dtype=dtype)
    a_index = (np.arange(total_a, dtype=dtype)
               + np.repeat(a_lo - ends_a + n_a, n_a))
    rows = arrays.a_rows[a_index].astype(dtype, copy=False)
    rep = np.repeat(n_b, n_a)
    total = int(rep.sum(dtype=np.int64))
    ends = np.cumsum(rep, dtype=dtype)
    b_index = (np.arange(total, dtype=dtype)
               + np.repeat(np.repeat(b_lo, n_a) - ends + rep, rep))
    return (np.repeat(rows * dtype(n_cols), rep)
            + arrays.b_cols[b_index].astype(dtype, copy=False))


def _check_counters_and_exclusivity(arrays: ProgramArrays,
                                    address_map: AddressMap, source: str,
                                    total_partial_products: int | None,
                                    level: str) -> list[Finding]:
    findings: list[Finding] = []
    nnz = arrays.output_nnz
    flat = arrays._flat_keys()
    # Stage A bounded tile widths to (0, tile_size], so the per-op product
    # fits int32; the sums still reduce in int64.
    pp_per_op = ((arrays.op_a_hi - arrays.op_a_lo)
                 * (arrays.op_b_hi - arrays.op_b_lo))
    dispatched = int(pp_per_op.sum(dtype=np.int64))
    counted = int(arrays.out_counts.sum(dtype=np.int64))
    if dispatched != counted:
        findings.append(_finding(
            "counter-histogram", source,
            f"ops dispatch {dispatched} partial products but the rolling "
            f"counters account for {counted}"))
    if total_partial_products is not None \
            and dispatched != total_partial_products:
        findings.append(_finding(
            "counter-histogram", source,
            f"ops dispatch {dispatched} partial products; the program "
            f"header claims {total_partial_products}"))

    # First-pair slot derivation: every op's counter address must point at
    # the slot of its first (row, col) pair.
    slot = arrays.op_slot
    bad_slot = (slot < 0) | (slot >= max(nnz, 1))
    if arrays.n_ops and np.any(bad_slot):
        index = _first_bad(bad_slot)
        findings.append(_finding(
            "address-exclusivity", source,
            f"op {index}: op_slot={int(slot[index])} outside the "
            f"{nnz}-slot output structure"))
        return findings
    if arrays.n_ops:
        key_space = int(arrays.shape[0]) * int(arrays.shape[1])
        key_dtype = (np.int32 if key_space < np.iinfo(np.int32).max
                     else np.int64)
        first_key = (arrays.a_rows[arrays.op_a_lo].astype(key_dtype,
                                                          copy=False)
                     * key_dtype(arrays.shape[1])
                     + arrays.b_cols[arrays.op_b_lo].astype(key_dtype,
                                                            copy=False))
        mismatch = flat[slot] != first_key
        if np.any(mismatch):
            index = _first_bad(mismatch)
            findings.append(_finding(
                "address-exclusivity", source,
                f"op {index}: op_slot={int(slot[index])} holds output key "
                f"{int(flat[slot[index]])} but the op's first (row, col) "
                f"pair is key {int(first_key[index])} — the counter "
                "address would be shared across distinct output elements"))
        expected_addr = (address_map.roll_counter_base
                         + slot.astype(np.int64) * ELEMENT_BYTES)
        bad_addr = arrays.op_counter_addr != expected_addr
        if np.any(bad_addr):
            index = _first_bad(bad_addr)
            findings.append(_finding(
                "address-exclusivity", source,
                f"op {index}: op_counter_addr="
                f"{int(arrays.op_counter_addr[index])} does not derive "
                f"from its slot (expected {int(expected_addr[index])}) — "
                "two ops could accumulate at one address without sharing "
                "an output key"))
    if level != "full" or findings:
        return findings

    # Full level: scatter every partial product onto its slot and prove
    # the per-slot counters exact (and every pair's address resolvable).
    # Small key spaces take the dense-histogram path (one bincount over
    # row*n_cols+col, no per-key binary search); larger shapes fall back
    # to searchsorted against the sorted output keys so the verifier
    # never allocates more than _DENSE_SCATTER_KEYS histogram entries.
    key_space = int(arrays.shape[0]) * int(arrays.shape[1])
    if key_space <= _DENSE_SCATTER_KEYS:
        chunks = _op_chunks(pp_per_op)
        if len(chunks) == 1:
            keys = _expanded_flat_keys(arrays, *chunks[0])
            histogram = np.bincount(keys, minlength=key_space)
        else:
            histogram = np.zeros(key_space, dtype=np.int64)
            for op_lo, op_hi in chunks:
                keys = _expanded_flat_keys(arrays, op_lo, op_hi)
                histogram += np.bincount(keys, minlength=key_space)
        accumulated = histogram[flat]
        # Every expanded key landed in the histogram, so mass missing
        # from the owned slots is mass on unowned keys.
        stray = dispatched - int(accumulated.sum())
        if stray:
            owned = np.zeros(key_space, dtype=bool)
            owned[flat] = True
            key = int(np.argmax((histogram > 0) & ~owned))
            findings.append(_finding(
                "address-exclusivity", source,
                f"a partial product targets output key {key} "
                f"(row {key // arrays.shape[1]}, "
                f"col {key % arrays.shape[1]}) which has no slot in the "
                "symbolic output structure — its accumulation address is "
                "unowned"))
            return findings
    else:
        accumulated = np.zeros(max(nnz, 1), dtype=np.int64)
        for op_lo, op_hi in _op_chunks(pp_per_op):
            keys = _expanded_flat_keys(arrays, op_lo, op_hi)
            slots = np.searchsorted(flat, keys)
            valid = (slots < nnz)
            valid &= flat[np.minimum(slots, max(nnz - 1, 0))] == keys
            if not np.all(valid):
                key = int(keys[_first_bad(~valid)])
                findings.append(_finding(
                    "address-exclusivity", source,
                    f"a partial product targets output key {key} "
                    f"(row {key // arrays.shape[1]}, "
                    f"col {key % arrays.shape[1]}) which has no slot in "
                    "the symbolic output structure — its accumulation "
                    "address is unowned"))
                return findings
            np.add.at(accumulated, slots, 1)
        accumulated = accumulated[:nnz]
    mismatch = accumulated != arrays.out_counts
    if np.any(mismatch):
        index = _first_bad(mismatch)
        findings.append(_finding(
            "counter-histogram", source,
            f"slot {index} (key {int(flat[index])}): ops dispatch "
            f"{int(accumulated[index])} partial products but the rolling "
            f"counter says {int(arrays.out_counts[index])} — the eviction "
            "countdown would fire early or never"))
    return findings


def _check_operand_pointers(arrays: ProgramArrays,
                            source: str) -> list[Finding]:
    """A's column pointers and B's row pointers are canonical, and every
    op's tile slices lie inside column / row ``op_k``."""
    findings: list[Finding] = []
    n_inner = arrays.a_indptr.size - 1
    for name, indptr, nnz in (("a_indptr", arrays.a_indptr,
                               arrays.a_rows.size),
                              ("b_indptr", arrays.b_indptr,
                               arrays.b_cols.size)):
        if (indptr.size != n_inner + 1 or n_inner < 0
                or int(indptr[0]) != 0 or int(indptr[-1]) != nnz
                or np.any(np.diff(indptr) < 0)):
            findings.append(_finding(
                "operand-pointers", source,
                f"{name} (length {indptr.size}) is not a non-decreasing "
                f"pointer array spanning [0, {nnz}] over {n_inner} inner "
                "indices"))
    if findings or arrays.n_ops == 0:
        return findings
    k = arrays.op_k.astype(np.int64)
    bad = (k < 0) | (k >= n_inner)
    if not np.any(bad):
        bad = ((arrays.op_a_lo < arrays.a_indptr[k])
               | (arrays.op_a_hi > arrays.a_indptr[k + 1])
               | (arrays.op_b_lo < arrays.b_indptr[k])
               | (arrays.op_b_hi > arrays.b_indptr[k + 1]))
    if np.any(bad):
        index = _first_bad(bad)
        findings.append(_finding(
            "operand-pointers", source,
            f"op {index}: tile slices A [{int(arrays.op_a_lo[index])}, "
            f"{int(arrays.op_a_hi[index])}) / B "
            f"[{int(arrays.op_b_lo[index])}, {int(arrays.op_b_hi[index])}) "
            f"fall outside column / row k={int(k[index])} of the operand "
            "pointers"))
    return findings


def _check_plan(arrays: ProgramArrays, source: str, total: int,
                level: str) -> list[Finding]:
    """The numeric plan maps each partial product to its own output slot
    and B entry (see the module docstring for the two levels)."""
    findings = _check_operand_pointers(arrays, source)
    if findings:
        return findings
    try:
        plan = arrays.numeric_plan()  # rebuilt here after a pickle load
    except ValueError as error:  # operands that fail CSR/CSC validation
        return [_finding("operand-pointers", source, str(error))]
    nnz, b_nnz = arrays.output_nnz, arrays.b_cols.size
    for name, column, bound in (("plan_slot", plan.slot, nnz),
                                ("plan_b_index", plan.b_index, b_nnz)):
        if column.size != total:
            findings.append(_finding(
                "plan-length", source,
                f"{name} has {column.size} entries for {total} partial "
                "products"))
        elif column.dtype != index_dtype(bound):
            findings.append(_finding(
                "column-dtype", source,
                f"{name} is {column.dtype}; indices below {bound} persist "
                f"as {np.dtype(index_dtype(bound))}"))
        elif total and (int(column.min()) < 0
                        or int(column.max()) >= bound):
            index = _first_bad((column < 0) | (column >= bound))
            findings.append(_finding(
                "plan-range", source,
                f"partial product {index}: {name}={int(column[index])} "
                f"outside [0, {bound})"))
    if findings:
        return findings
    histogram = np.bincount(plan.slot, minlength=nnz)
    mismatch = histogram != arrays.out_counts
    if np.any(mismatch):
        index = _first_bad(mismatch)
        findings.append(_finding(
            "plan-histogram", source,
            f"slot {index}: the plan accumulates {int(histogram[index])} "
            f"partial products but the rolling counter says "
            f"{int(arrays.out_counts[index])}"))
    if level != "full" or findings:
        return findings

    # Full level: re-expand every partial product in Gustavson row-major
    # order (A entries sorted by row, k ascending within a row).
    n_cols = arrays.shape[1]
    e_k = np.repeat(np.arange(arrays.a_indptr.size - 1, dtype=np.int64),
                    np.diff(arrays.a_indptr))
    by_row = np.argsort(arrays.a_rows, kind="stable")
    rows = arrays.a_rows[by_row].astype(np.int64)
    ks = e_k[by_row]
    rep = np.diff(arrays.b_indptr)[ks]
    ends = np.cumsum(rep)
    flat = arrays._flat_keys()
    for lo, hi in _op_chunks(rep):
        p0 = int(ends[lo - 1]) if lo else 0
        p1 = int(ends[hi - 1])
        rep_c = rep[lo:hi]
        b_entry = np.arange(p0, p1, dtype=np.int64) + np.repeat(
            arrays.b_indptr[ks[lo:hi]] - ends[lo:hi] + rep_c, rep_c)
        keys = (np.repeat(rows[lo:hi] * n_cols, rep_c)
                + arrays.b_cols[b_entry])
        bad = ((plan.b_index[p0:p1] != b_entry)
               | (flat[plan.slot[p0:p1]] != keys))
        if np.any(bad):
            index = p0 + _first_bad(bad)
            key = int(keys[index - p0])
            findings.append(_finding(
                "plan-keys", source,
                f"partial product {index}: plan says B entry "
                f"{int(plan.b_index[index])} into slot "
                f"{int(plan.slot[index])} (key "
                f"{int(flat[plan.slot[index]])}); its expansion is B entry "
                f"{int(b_entry[index - p0])} into key {key} (row "
                f"{key // n_cols}, col {key % n_cols})"))
            return findings
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_arrays(arrays: ProgramArrays, address_map: AddressMap,
                  source: str = "program",
                  total_partial_products: int | None = None,
                  level: str = "full") -> list[Finding]:
    """Verify one columnar payload; returns findings (empty == proven)."""
    if level not in VERIFY_LEVELS:
        raise ValueError(f"unknown verify level {level!r}; expected one of "
                         f"{VERIFY_LEVELS}")
    findings = _check_layout(arrays, source)
    if findings:
        return findings  # later stages index through the columns
    findings = _check_slices(arrays, source)
    findings += _check_output_structure(arrays, source)
    if findings:
        return findings  # slot lookups below need sane slices/structure
    findings += _check_offsets(arrays, address_map, source)
    findings += _check_row_groups(arrays, source)
    findings += _check_counters_and_exclusivity(
        arrays, address_map, source, total_partial_products, level)
    if findings:
        return findings  # the plan is checked against a proven structure
    if total_partial_products is None:
        total_partial_products = int(arrays.out_counts.sum())
    return _check_plan(arrays, source, total_partial_products, level)


def verify_program(program: Program, level: str = "full") -> list[Finding]:
    """Verify a compiled :class:`Program` without executing it.

    Columnar programs get the vectorized pass; legacy (materialized)
    programs fall back to :meth:`Program.validate`, reported through the
    same finding model.
    """
    if program.arrays is not None:
        return verify_arrays(program.arrays, program.address_map,
                             source=program.source or "program",
                             total_partial_products=(
                                 program.total_partial_products),
                             level=level)
    try:
        program.validate()
    except AssertionError as error:
        return [_finding("legacy-program", program.source or "program",
                         str(error))]
    return []


def assert_program_valid(program: Program, level: str = "full") -> Program:
    """Raise :class:`VerificationError` unless ``program`` verifies clean."""
    findings = verify_program(program, level=level)
    if findings:
        raise VerificationError(
            f"program {program.source!r} failed IR verification: "
            + "; ".join(f.format() for f in findings[:3]),
            findings)
    return program
