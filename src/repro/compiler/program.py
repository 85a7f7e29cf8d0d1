"""Program representation: MMH / HACC macro-operations and the address map.

The cycle simulator consumes *macro-ops*: decoded instructions that carry both
the architectural fields (operand addresses, as encoded by
:mod:`repro.arch.isa`) and the semantic payload (the actual operand values)
so that the simulation can verify numerical correctness of the accelerator
output against a software reference.

Programs are stored *columnar*: the compiler emits a
:class:`ProgramArrays` structure-of-arrays payload (per-op operand slices,
addresses and output-slot indices, plus the CSR-shaped symbolic output
structure), and the familiar :class:`MMHMacroOp` objects are materialized
lazily — only when the cycle/functional simulators actually iterate them.
Count-only consumers (the analytic backend, report rows, cache
fingerprints) read the arrays directly and never pay for materialization.
The payload also carries the product's numeric plan (every partial
product's output slot and B entry), so the analytic backend's numeric
phase is a gather-multiply and one ``np.bincount`` per run.  Pickling a
columnar program (disk cache spill, cross-process shipping) serialises
only the arrays, less the plan, which rebuilds on first use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.arch.isa import (
    HACCInstruction,
    MMHInstruction,
    Opcode,
    encode_hacc,
    encode_mmh,
)
from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import (
    NumericPlan,
    SymbolicProduct,
    numeric_plan,
    row_per_slot,
)

#: Bytes per matrix element in the virtual HBM layout (fp32 value or int32 index).
ELEMENT_BYTES = 4


@dataclass(frozen=True)
class AddressMap:
    """Byte layout of the operands in the accelerator's HBM address space.

    The regions are laid out back to back: A values, A row indices, B column
    indices, B values, rolling counters, and the output C region.
    """

    a_data_base: int
    a_indices_base: int
    b_col_ind_base: int
    b_data_base: int
    roll_counter_base: int
    output_base: int
    total_bytes: int

    @classmethod
    def layout(cls, a_nnz: int, b_nnz: int, output_nnz: int) -> "AddressMap":
        """Assign contiguous regions for the operand arrays."""
        cursor = 0
        a_data_base = cursor
        cursor += a_nnz * ELEMENT_BYTES
        a_indices_base = cursor
        cursor += a_nnz * ELEMENT_BYTES
        b_col_ind_base = cursor
        cursor += b_nnz * ELEMENT_BYTES
        b_data_base = cursor
        cursor += b_nnz * ELEMENT_BYTES
        roll_counter_base = cursor
        cursor += output_nnz * ELEMENT_BYTES
        output_base = cursor
        cursor += output_nnz * ELEMENT_BYTES
        return cls(a_data_base=a_data_base, a_indices_base=a_indices_base,
                   b_col_ind_base=b_col_ind_base, b_data_base=b_data_base,
                   roll_counter_base=roll_counter_base, output_base=output_base,
                   total_bytes=cursor)

    def regions(self) -> dict[str, tuple[int, int]]:
        """Per-region ``[start, end)`` byte bounds, in layout order.

        The regions are back to back, so each region ends where the next
        one begins and the last ends at ``total_bytes``.  This is the
        bounds oracle the static IR verifier checks operand offsets
        against.
        """
        bases = [("a_data", self.a_data_base),
                 ("a_indices", self.a_indices_base),
                 ("b_col_ind", self.b_col_ind_base),
                 ("b_data", self.b_data_base),
                 ("roll_counter", self.roll_counter_base),
                 ("output", self.output_base)]
        ends = [base for _, base in bases[1:]] + [self.total_bytes]
        return {name: (base, end)
                for (name, base), end in zip(bases, ends)}


@dataclass(frozen=True)
class HACCMacroOp:
    """A hash_accumulate operation with its semantic payload.

    Attributes:
        tag: 32-bit output-element identifier hashed by NeuraMem.
        value: partial-product value to accumulate.
        counter: rolling-eviction counter (total contributions to this tag).
        out_row / out_col: coordinates of the output element.
        writeback_addr: HBM address the evicted result is written to.
    """

    tag: int
    value: float
    counter: int
    out_row: int
    out_col: int
    writeback_addr: int

    def encode(self) -> int:
        """Architectural 128-bit encoding (Figure 9)."""
        return encode_hacc(HACCInstruction(tag=self.tag, data=self.value,
                                           writeback_addr=self.writeback_addr,
                                           counter=min(self.counter, 0xFFFF)))


@dataclass(frozen=True)
class MMHMacroOp:
    """A matrix_mult_hash operation with its semantic payload.

    One MMH pairs up to ``tile_size`` elements of a column of A with up to
    ``tile_size`` elements of the matching row of B (Section 3.1), producing
    up to ``tile_size**2`` partial products.

    Attributes:
        opcode: MMH variant (MMH1/2/4/8).
        k: the shared inner index (column of A == row of B).
        a_rows: output-row indices of the A-tile elements.
        a_values: values of the A-tile elements.
        b_cols: output-column indices of the B-tile elements.
        b_values: values of the B-tile elements.
        instruction: architectural address-form instruction (Figure 7).
        reseed_after: True when this is the last MMH of an input column, i.e.
            the point at which DRHM draws a new seed.
        sequence: position in program order.
    """

    opcode: Opcode
    k: int
    a_rows: tuple[int, ...]
    a_values: tuple[float, ...]
    b_cols: tuple[int, ...]
    b_values: tuple[float, ...]
    instruction: MMHInstruction
    reseed_after: bool = False
    sequence: int = 0

    @property
    def tile_size(self) -> int:
        return self.opcode.mmh_tile_size

    @property
    def n_partial_products(self) -> int:
        """Actual number of HACC operations this MMH dispatches."""
        return len(self.a_rows) * len(self.b_cols)

    @property
    def memory_requests(self) -> int:
        """Distinct operand fetches issued (A data, B col indices, B data, counters)."""
        return 4

    def operand_addresses(self) -> dict[str, tuple[int, int]]:
        """(address, bytes) per operand fetch, for the memory model."""
        n_a = len(self.a_rows)
        n_b = len(self.b_cols)
        instr = self.instruction
        return {
            "a_data": (instr.base_addr + instr.a_data_addr, n_a * ELEMENT_BYTES),
            "b_col_ind": (instr.base_addr + instr.b_col_ind_addr, n_b * ELEMENT_BYTES),
            "b_data": (instr.base_addr + instr.b_data_addr, n_b * ELEMENT_BYTES),
            "roll_counter": (instr.base_addr + instr.roll_counter_addr,
                             n_a * n_b * ELEMENT_BYTES),
        }

    def expand(self, counters: dict[tuple[int, int], int], n_out_cols: int,
               output_addrs: dict[tuple[int, int], int]) -> list[HACCMacroOp]:
        """Expand into HACC macro-ops (Algorithm 1's dispatch loop)."""
        haccs = []
        for i, av in zip(self.a_rows, self.a_values):
            for j, bv in zip(self.b_cols, self.b_values):
                tag = (i * n_out_cols + j) & 0xFFFFFFFF
                haccs.append(HACCMacroOp(
                    tag=tag,
                    value=av * bv,
                    counter=counters[(i, j)],
                    out_row=i,
                    out_col=j,
                    writeback_addr=output_addrs[(i, j)],
                ))
        return haccs

    def encode(self) -> int:
        """Architectural 128-bit encoding (Figure 7)."""
        return encode_mmh(self.instruction)


@dataclass
class ProgramArrays:
    """Columnar (structure-of-arrays) payload of a compiled program.

    All per-op columns have length ``n_ops`` and are aligned with program
    order; operand payloads are stored once as flat arrays that the ops
    slice into, so the whole program costs O(a_nnz + b_nnz + output_nnz +
    n_ops) memory, pickles as a handful of numpy buffers, and every
    aggregate a consumer needs (op counts, operand sizes, tag/counter
    histograms) is one vectorized reduction away.

    Attributes:
        opcode: MMH opcode variant shared by every op.
        tile_size: MMH tile size the program was compiled for.
        shape: shape of the output matrix C.
        out_indptr / out_indices / out_counts: CSR-shaped symbolic output
            structure (canonical row-major slot order; slot ``s`` is output
            element ``(row, out_indices[s])`` with rolling counter
            ``out_counts[s]``).
        a_indptr / a_rows / a_values: the A operand in CSC (column
            pointers, then row index and value per non-zero).
        b_indptr / b_cols / b_values: the B operand in CSR (row pointers,
            then column index and value per non-zero).
        op_k: shared inner index per op.
        op_group: row-group index per op (``min(a_rows) // tile_size``).
        op_a_lo / op_a_hi: per-op A-tile slice into ``a_rows`` / ``a_values``.
        op_b_lo / op_b_hi: per-op B-tile slice into ``b_cols`` / ``b_values``.
        op_slot: output slot of the op's first (row, col) pair — the slot
            its rolling-counter address points at.
        op_reseed: True on the last op of each row group (DRHM reseed).
        op_a_addr / op_b_col_addr / op_b_data_addr / op_counter_addr:
            architectural operand addresses per op (Figure 7 register
            fields, already validated against the 22-bit limit).
        plan_slot / plan_b_index: the numeric plan, one entry per partial
            product in Gustavson row-major order — its output slot and its
            B entry (see :class:`~repro.sparse.symbolic.NumericPlan`).
            Structure only, so value rebinding shares it.  Pickling drops
            the plan (it is most of an O(partial products) payload) and
            :meth:`numeric_plan` rebuilds it on first use after a load.
    """

    opcode: Opcode
    tile_size: int
    shape: tuple[int, int]
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_counts: np.ndarray
    a_indptr: np.ndarray
    a_rows: np.ndarray
    a_values: np.ndarray
    b_indptr: np.ndarray
    b_cols: np.ndarray
    b_values: np.ndarray
    op_k: np.ndarray
    op_group: np.ndarray
    op_a_lo: np.ndarray
    op_a_hi: np.ndarray
    op_b_lo: np.ndarray
    op_b_hi: np.ndarray
    op_slot: np.ndarray
    op_reseed: np.ndarray
    op_a_addr: np.ndarray
    op_b_col_addr: np.ndarray
    op_b_data_addr: np.ndarray
    op_counter_addr: np.ndarray
    plan_slot: np.ndarray | None = None
    plan_b_index: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Aggregates (no materialization)
    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        return int(self.op_k.size)

    @property
    def output_nnz(self) -> int:
        return int(self.out_indices.size)

    @property
    def n_row_groups(self) -> int:
        """Row groups that issued at least one op (reseed boundaries)."""
        return int(np.count_nonzero(self.op_reseed))

    @property
    def sum_na(self) -> int:
        """Total A-tile elements across ops (operand fetch accounting)."""
        return int((self.op_a_hi - self.op_a_lo).sum())

    @property
    def sum_nb(self) -> int:
        """Total B-tile elements across ops (operand fetch accounting)."""
        return int((self.op_b_hi - self.op_b_lo).sum())

    @property
    def partial_products_per_op(self) -> np.ndarray:
        """HACCs each op dispatches (``n_a * n_b``), as an array."""
        return (self.op_a_hi - self.op_a_lo) * (self.op_b_hi - self.op_b_lo)

    def counter_histogram(self) -> np.ndarray:
        """Histogram of rolling-counter values across output tags
        (``hist[c]`` = tags that accumulate exactly ``c`` partial
        products) — the per-tag work distribution, straight from the
        symbolic arrays."""
        if self.out_counts.size == 0:
            return np.zeros(1, dtype=np.int64)
        return np.bincount(self.out_counts)

    def row_tag_counts(self) -> np.ndarray:
        """Output tags per output row (the tag histogram across rows)."""
        return np.diff(self.out_indptr)

    # ------------------------------------------------------------------
    # Numeric phase inputs
    # ------------------------------------------------------------------
    def numeric_plan(self) -> NumericPlan:
        """The compiled numeric plan, as the kernel layer takes it (views
        of this payload's arrays, no copies).

        A payload loaded from a pickle rebuilds its plan here once, from
        the operand and output structure arrays.
        """
        if self.plan_slot is None or self.plan_b_index is None:
            a_csr, b_csr = self.operands()
            symbolic = SymbolicProduct(
                shape=self.shape, indptr=self.out_indptr,
                indices=self.out_indices, counts=self.out_counts,
                total_partial_products=int(self.out_counts.sum()),
                _flat=self._flat_keys())
            plan = numeric_plan(a_csr.indptr, a_csr.indices, b_csr, symbolic)
            self.plan_b_index = plan.b_index
            self.plan_slot = plan.slot
        return NumericPlan(shape=self.shape, indptr=self.out_indptr,
                           indices=self.out_indices, slot=self.plan_slot,
                           b_index=self.plan_b_index)

    def operands(self) -> tuple[CSRMatrix, CSRMatrix]:
        """Rebuild the CSR operands ``(A, B)`` the program was compiled
        from."""
        n_inner = self.a_indptr.size - 1
        a_csc = CSCMatrix(self.a_indptr, self.a_rows, self.a_values,
                          (self.shape[0], n_inner))
        b_csr = CSRMatrix(self.b_indptr, self.b_cols, self.b_values,
                          (n_inner, self.shape[1]))
        return csc_to_csr(a_csc), b_csr

    # ------------------------------------------------------------------
    # Slot lookup
    # ------------------------------------------------------------------
    def _flat_keys(self) -> np.ndarray:
        """Ascending flattened output coordinates, built on first use and
        cached per instance (HACC expansion, verification and plan
        rebuilds read it; warm analytic runs never do)."""
        cached = self.__dict__.get("_flat_cache")
        if cached is None:
            cached = (row_per_slot(self.out_indptr, self.shape[0])
                      * self.shape[1] + self.out_indices)
            self.__dict__["_flat_cache"] = cached
        return cached

    # ------------------------------------------------------------------
    # Lazy materialization
    # ------------------------------------------------------------------
    def materialize(self, index: int) -> MMHMacroOp:
        """Build the :class:`MMHMacroOp` object for one program position."""
        a_lo, a_hi = int(self.op_a_lo[index]), int(self.op_a_hi[index])
        b_lo, b_hi = int(self.op_b_lo[index]), int(self.op_b_hi[index])
        instruction = MMHInstruction(
            opcode=self.opcode,
            base_addr=0,
            a_data_addr=int(self.op_a_addr[index]),
            b_col_ind_addr=int(self.op_b_col_addr[index]),
            b_data_addr=int(self.op_b_data_addr[index]),
            roll_counter_addr=int(self.op_counter_addr[index]),
        )
        return MMHMacroOp(
            opcode=self.opcode,
            k=int(self.op_k[index]),
            a_rows=tuple(self.a_rows[a_lo:a_hi].tolist()),
            a_values=tuple(self.a_values[a_lo:a_hi].tolist()),
            b_cols=tuple(self.b_cols[b_lo:b_hi].tolist()),
            b_values=tuple(self.b_values[b_lo:b_hi].tolist()),
            instruction=instruction,
            reseed_after=bool(self.op_reseed[index]),
            sequence=index,
        )

    def iter_ops(self) -> Iterator[MMHMacroOp]:
        """Generate macro-ops in program order without retaining them."""
        for index in range(self.n_ops):
            yield self.materialize(index)

    def expand_haccs(self, mmh: MMHMacroOp,
                     address_map: AddressMap) -> list[HACCMacroOp]:
        """Expand one MMH into HACC macro-ops, resolving counters and
        write-back addresses through the symbolic arrays (no dict views)."""
        n_cols = self.shape[1]
        a_rows = np.asarray(mmh.a_rows, dtype=np.int64)
        b_cols = np.asarray(mmh.b_cols, dtype=np.int64)
        flat = (a_rows[:, None] * n_cols + b_cols[None, :]).ravel()
        slots = np.searchsorted(self._flat_keys(), flat)
        counters = self.out_counts[slots].tolist()
        writebacks = (address_map.output_base
                      + slots * ELEMENT_BYTES).tolist()
        haccs = []
        position = 0
        for i, av in zip(mmh.a_rows, mmh.a_values):
            for j, bv in zip(mmh.b_cols, mmh.b_values):
                haccs.append(HACCMacroOp(
                    tag=(i * n_cols + j) & 0xFFFFFFFF,
                    value=av * bv,
                    counter=counters[position],
                    out_row=i,
                    out_col=j,
                    writeback_addr=writebacks[position],
                ))
                position += 1
        return haccs

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_flat_cache", None)
        state["plan_slot"] = state["plan_b_index"] = None
        return state


@dataclass(frozen=True)
class ProgramDigest:
    """Count-level summary of a compiled program.

    Carries every aggregate a report row needs (instruction counts, partial
    products, bloat) at a fraction of a :class:`Program`'s pickled size, so
    results shipped back from executor worker processes don't pay to
    serialise the full macro-op stream.
    """

    n_instructions: int
    total_partial_products: int
    output_nnz: int
    shape: tuple[int, int]
    tile_size: int
    a_nnz: int
    b_nnz: int
    source: str = ""

    @property
    def bloat_percent(self) -> float:
        """Equation 1 bloat for this program's workload."""
        if self.output_nnz == 0:
            return 0.0
        return (self.total_partial_products - self.output_nnz) / self.output_nnz * 100.0

    @property
    def useful_flops(self) -> int:
        return 2 * self.total_partial_products

    def digest(self) -> "ProgramDigest":
        return self


class Program:
    """A compiled NeuraChip program.

    Holds either a columnar :class:`ProgramArrays` payload (the compiler's
    native output — macro-ops, counter dicts and address dicts are
    materialized lazily, and only on demand) or the fully materialized
    legacy representation (macro-op list plus counter / address dicts, as
    the reference loop compiler produces).

    Attributes:
        arrays: columnar payload, or ``None`` for legacy programs.
        address_map: operand layout in HBM.
        shape: shape of the output matrix C.
        tile_size: MMH tile size the program was compiled for.
        a_nnz / b_nnz: operand non-zero counts (for traffic accounting).
        total_partial_products: total HACC operations the program dispatches.
        source: human-readable description of the workload.
    """

    def __init__(self, mmh_ops: list[MMHMacroOp] | None = None,
                 counters: dict[tuple[int, int], int] | None = None,
                 output_addrs: dict[tuple[int, int], int] | None = None,
                 address_map: AddressMap | None = None,
                 shape: tuple[int, int] = (0, 0),
                 tile_size: int = 4,
                 a_nnz: int = 0,
                 b_nnz: int = 0,
                 total_partial_products: int = 0,
                 source: str = "",
                 metadata: dict | None = None,
                 arrays: ProgramArrays | None = None) -> None:
        if arrays is None and (mmh_ops is None or counters is None
                               or output_addrs is None):
            raise ValueError("Program needs either a columnar `arrays` "
                             "payload or the fully materialized legacy "
                             "triple (`mmh_ops` + `counters` + "
                             "`output_addrs`)")
        if arrays is not None and address_map is None:
            raise ValueError("a columnar Program needs its `address_map` "
                             "to resolve write-back addresses")
        self.arrays = arrays
        self.address_map = address_map
        self.shape = (int(shape[0]), int(shape[1]))
        self.tile_size = tile_size
        self.a_nnz = a_nnz
        self.b_nnz = b_nnz
        self.total_partial_products = total_partial_products
        self.source = source
        self.metadata = dict(metadata) if metadata else {}
        self._mmh_ops: list[MMHMacroOp] | None = \
            list(mmh_ops) if mmh_ops is not None else None
        self._counters: dict[tuple[int, int], int] | None = \
            dict(counters) if counters is not None else None
        self._output_addrs: dict[tuple[int, int], int] | None = \
            dict(output_addrs) if output_addrs is not None else None

    # ------------------------------------------------------------------
    # Lazy views over the columnar payload
    # ------------------------------------------------------------------
    @property
    def mmh_ops(self) -> list[MMHMacroOp]:
        """The MMH macro-op stream in program order (materialized on first
        access for columnar programs, then cached)."""
        if self._mmh_ops is None:
            self._mmh_ops = list(self.arrays.iter_ops())
        return self._mmh_ops

    def iter_mmh_ops(self) -> Iterator[MMHMacroOp]:
        """Iterate macro-ops in program order without caching the list —
        the view the simulators consume."""
        if self._mmh_ops is not None:
            yield from self._mmh_ops
        elif self.arrays is not None:
            yield from self.arrays.iter_ops()

    @property
    def counters(self) -> dict[tuple[int, int], int]:
        """Rolling counter per output coordinate (lazy dict view)."""
        if self._counters is None:
            arrays = self.arrays
            rows = row_per_slot(arrays.out_indptr, arrays.shape[0])
            self._counters = dict(zip(
                zip(rows.tolist(), arrays.out_indices.tolist()),
                arrays.out_counts.tolist()))
        return self._counters

    @property
    def output_addrs(self) -> dict[tuple[int, int], int]:
        """HBM write-back address per output coordinate (lazy dict view)."""
        if self._output_addrs is None:
            arrays = self.arrays
            rows = row_per_slot(arrays.out_indptr, arrays.shape[0])
            base = self.address_map.output_base
            addrs = base + np.arange(arrays.output_nnz,
                                     dtype=np.int64) * ELEMENT_BYTES
            self._output_addrs = dict(zip(
                zip(rows.tolist(), arrays.out_indices.tolist()),
                addrs.tolist()))
        return self._output_addrs

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        """Number of MMH instructions."""
        if self.arrays is not None:
            return self.arrays.n_ops
        return len(self._mmh_ops)

    @property
    def output_nnz(self) -> int:
        """Number of non-zeros in the output matrix."""
        if self.arrays is not None:
            return self.arrays.output_nnz
        return len(self._counters)

    @property
    def bloat_percent(self) -> float:
        """Equation 1 bloat for this program's workload."""
        if self.output_nnz == 0:
            return 0.0
        return (self.total_partial_products - self.output_nnz) / self.output_nnz * 100.0

    @property
    def useful_flops(self) -> int:
        """Useful floating-point operations (multiply + add per partial product)."""
        return 2 * self.total_partial_products

    def digest(self) -> ProgramDigest:
        """Count-level summary suitable for cross-process result transfer."""
        return ProgramDigest(
            n_instructions=self.n_instructions,
            total_partial_products=self.total_partial_products,
            output_nnz=self.output_nnz,
            shape=self.shape,
            tile_size=self.tile_size,
            a_nnz=self.a_nnz,
            b_nnz=self.b_nnz,
            source=self.source)

    # ------------------------------------------------------------------
    # Expansion and reference semantics
    # ------------------------------------------------------------------
    def expand_haccs(self, mmh: MMHMacroOp) -> list[HACCMacroOp]:
        """Expand one MMH of this program into its HACC macro-ops."""
        if self.arrays is not None:
            return self.arrays.expand_haccs(mmh, self.address_map)
        return mmh.expand(self._counters, self.shape[1], self._output_addrs)

    def reference_result(self) -> np.ndarray:
        """Dense reference of the output computed from the macro-op stream."""
        dense = np.zeros(self.shape, dtype=np.float64)
        for mmh in self.iter_mmh_ops():
            for hacc in self.expand_haccs(mmh):
                dense[hacc.out_row, hacc.out_col] += hacc.value
        return dense

    def encode_binary(self) -> bytes:
        """Serialise the MMH stream to the 128-bit binary format."""
        blob = bytearray()
        for op in self.iter_mmh_ops():
            blob.extend(op.encode().to_bytes(16, "little"))
        return bytes(blob)

    def validate(self) -> None:
        """Check program invariants; raise AssertionError when violated.

        * every expanded HACC's counter matches the symbolic counter;
        * the per-tag number of HACCs equals that counter;
        * bloat accounting is consistent.
        """
        per_tag_counts: dict[tuple[int, int], int] = {}
        total = 0
        for mmh in self.iter_mmh_ops():
            for hacc in self.expand_haccs(mmh):
                key = (hacc.out_row, hacc.out_col)
                per_tag_counts[key] = per_tag_counts.get(key, 0) + 1
                total += 1
        if total != self.total_partial_products:
            raise AssertionError("partial product count mismatch")
        if set(per_tag_counts) != set(self.counters):
            raise AssertionError("output structure mismatch")
        for key, count in per_tag_counts.items():
            if count != self.counters[key]:
                raise AssertionError(f"counter mismatch at {key}: "
                                     f"{count} != {self.counters[key]}")

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle columnar programs as arrays only: the materialized
        macro-op / dict caches are dropped (they rebuild lazily), so disk
        spills and cross-process shipments stay operand-sized."""
        state = self.__dict__.copy()
        if state.get("arrays") is not None:
            state["_mmh_ops"] = None
            state["_counters"] = None
            state["_output_addrs"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "columnar" if self.arrays is not None else "materialized"
        return (f"Program(source={self.source!r}, shape={self.shape}, "
                f"tile_size={self.tile_size}, "
                f"n_instructions={self.n_instructions}, "
                f"partial_products={self.total_partial_products}, "
                f"layout={layout})")


def rebind_b_values(program: Program, b_csr) -> Program:
    """A copy of a columnar ``program`` with the B operand's *values*
    swapped for ``b_csr.data`` — structure, instruction stream and
    addressing untouched.

    This is the resident-graph fast path: the compiler's symbolic pass and
    lowering depend only on operand sparsity, so one compiled aggregation
    program serves every layer of a GNN stack as long as the feature
    matrices share a structure.  The cached program is never mutated — the
    caller gets a fresh :class:`Program` wrapping a shallow
    :class:`ProgramArrays` copy whose ``b_values`` (the only value-bearing
    B array) point at the new data.  Every structure array, the numeric
    plan included, is shared with the cached program, not copied.

    Raises:
        ValueError: for legacy (non-columnar) programs or when ``b_csr``'s
            nnz does not match the structure the program was compiled for.
    """
    arrays = program.arrays
    if arrays is None:
        raise ValueError("rebind_b_values needs a columnar program")
    values = np.ascontiguousarray(b_csr.data, dtype=np.float64)
    if values.size != arrays.b_values.size:
        raise ValueError(
            f"operand structure mismatch: program was compiled for "
            f"{arrays.b_values.size} B non-zeros, got {values.size}")
    arrays.numeric_plan()  # built once on the cached program, then shared
    new_arrays = dataclasses.replace(arrays, b_values=values)
    flat_cache = arrays.__dict__.get("_flat_cache")
    if flat_cache is not None:
        # Structure-only: safe to share with the rebound copy.
        new_arrays.__dict__["_flat_cache"] = flat_cache
    return Program(arrays=new_arrays,
                   address_map=program.address_map,
                   shape=program.shape,
                   tile_size=program.tile_size,
                   a_nnz=program.a_nnz,
                   b_nnz=program.b_nnz,
                   total_partial_products=program.total_partial_products,
                   source=program.source,
                   metadata=program.metadata)
