"""SpGEMM kernel layer: one dispatch table, two implementations per dataflow.

The reference dataflows in :mod:`repro.sparse.spgemm` are written as
triple-nested Python loops so they can be read next to Figure 2 of the paper.
That makes them the ground truth — and makes them far too slow for graphs
beyond a few hundred nodes.  This module adds a *kernel registry* that pairs
every dataflow with two interchangeable implementations:

* ``impl="python"`` — thin wrappers around the reference loops (unchanged);
* ``impl="numpy"`` — the numeric phase of a two-phase SpGEMM, producing
  **identical op counts** (``partial_products``, ``accumulations``,
  ``output_nnz``, ``mmh_instructions``), the same output structure, and
  values that differ from the reference loops' at most by the rounding of
  a different summation order.

Every kernel has the canonical signature::

    kernel(a_csr: CSRMatrix, b_csr: CSRMatrix, *, tile_rows: int = 4,
           plan: NumericPlan | None = None) -> SpGEMMResult

Format conversions (CSR -> CSC where a dataflow wants column access) happen
inside the kernel, so callers only ever hold CSR operands.  The reference
loops ignore ``plan``.

The numpy kernels split C = A @ B the way NeuraChip splits it between
NeuraCore and NeuraMem.  The structure-only half is a
:class:`~repro.sparse.symbolic.NumericPlan`: the output slot and B entry of
every partial product, in Gustavson row-major order (see
:func:`~repro.sparse.symbolic.numeric_plan`).  A compiled program carries
its plan, so a warm run passes it in.  Without one, the kernel compiles it
from the operands.  The numeric half is then one gather-multiply —
``np.repeat`` of A's values by the B row lengths, times B's values
gathered through the plan — and one ``np.bincount`` over the slots.
``np.bincount`` adds each output's partial products one after another in
plan order, which is ascending ``k``, starting from zero.  Every output is
therefore summed the same way on every input, and no Python-level loop
touches a partial product.  All four dataflows enumerate exactly the set
``{(i, k, j)}``, so their op counts collapse to closed forms over the
per-``k`` operand counts ``na`` and ``nb``; the reference loops are retained
to prove those closed forms right.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix
from repro.sparse.spgemm import (
    SpGEMMResult,
    _check_dims,
    spgemm_inner_product,
    spgemm_outer_product,
    spgemm_row_wise,
    spgemm_tiled_gustavson,
)
from repro.sparse.symbolic import NumericPlan, numeric_plan, symbolic_spgemm

#: Canonical kernel signature: (A in CSR, B in CSR, tile_rows, plan)
#: -> SpGEMMResult.
KernelFn = Callable[..., SpGEMMResult]

#: Kernel registry keyed by (dataflow, impl).
_KERNELS: dict[tuple[str, str], KernelFn] = {}

DATAFLOWS = ("inner", "outer", "row_wise", "tiled_gustavson")
IMPLS = ("python", "numpy")


def register_kernel(dataflow: str, impl: str):
    """Class of decorators that install a kernel into the dispatch table."""

    def decorator(fn: KernelFn) -> KernelFn:
        _KERNELS[(dataflow, impl)] = fn
        return fn

    return decorator


def available_kernels() -> list[tuple[str, str]]:
    """Registered (dataflow, impl) pairs in registration order."""
    return list(_KERNELS)


def available_impls(dataflow: str) -> list[str]:
    """Implementations registered for one dataflow."""
    return [impl for (flow, impl) in _KERNELS if flow == dataflow]


def get_kernel(dataflow: str, impl: str = "numpy") -> KernelFn:
    """Look up a kernel; raise ValueError naming the registered options."""
    key = (dataflow, impl)
    if key not in _KERNELS:
        flows = sorted({flow for flow, _ in _KERNELS})
        impls = sorted({i for _, i in _KERNELS})
        raise ValueError(
            f"no kernel for dataflow={dataflow!r} impl={impl!r}; "
            f"dataflows: {flows}; impls: {impls}")
    return _KERNELS[key]


def spgemm(a_csr: CSRMatrix, b_csr: CSRMatrix,
           dataflow: str = "tiled_gustavson", impl: str = "numpy",
           tile_rows: int = 4, *,
           plan: NumericPlan | None = None) -> SpGEMMResult:
    """Run C = A @ B through the selected dataflow/implementation kernel.

    ``plan`` is the product's compiled numeric plan (a program's
    :meth:`~repro.compiler.program.ProgramArrays.numeric_plan`); the numpy
    kernels compile one from the operands when it is omitted.
    """
    return get_kernel(dataflow, impl)(a_csr, b_csr, tile_rows=tile_rows,
                                      plan=plan)


# ----------------------------------------------------------------------
# python impls: wrappers around the reference loops (the ground truth).
# ----------------------------------------------------------------------
@register_kernel("inner", "python")
def _inner_python(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                  tile_rows: int = 4,
                  plan: NumericPlan | None = None) -> SpGEMMResult:
    return spgemm_inner_product(a_csr, csr_to_csc(b_csr))


@register_kernel("outer", "python")
def _outer_python(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                  tile_rows: int = 4,
                  plan: NumericPlan | None = None) -> SpGEMMResult:
    return spgemm_outer_product(csr_to_csc(a_csr), b_csr)


@register_kernel("row_wise", "python")
def _row_wise_python(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                     tile_rows: int = 4,
                     plan: NumericPlan | None = None) -> SpGEMMResult:
    return spgemm_row_wise(a_csr, b_csr)


@register_kernel("tiled_gustavson", "python")
def _tiled_python(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                  tile_rows: int = 4,
                  plan: NumericPlan | None = None) -> SpGEMMResult:
    return spgemm_tiled_gustavson(csr_to_csc(a_csr), b_csr,
                                  tile_rows=tile_rows)


# ----------------------------------------------------------------------
# numpy impls: the numeric phase of a compiled plan.
# ----------------------------------------------------------------------
def _merged(a_csr: CSRMatrix, b_csr: CSRMatrix, plan: NumericPlan | None
            ) -> tuple[CSRMatrix, int, int, np.ndarray, np.ndarray]:
    """Shared numpy path: run the numeric phase of ``plan`` and count.

    Without a plan, one is compiled from the operands first.  The numeric
    phase gathers and multiplies every partial product in plan order, then
    sums each output with one ``np.bincount`` over the plan's slots —
    sequentially, in ascending-``k`` order.

    Returns ``(matrix, partial_products, accumulations, na, nb)`` where
    ``na[k]`` / ``nb[k]`` are the per-inner-index operand counts the
    closed-form op counts are derived from.  The accumulation count is
    ``partial_products - output_nnz`` for every dataflow: the first partial
    product landing on an output coordinate is an insert, every later one
    is a scalar addition — exactly what the reference loops count with
    their per-key accumulators.

    Raises:
        ValueError: if ``plan`` was compiled for operands of another
            shape or partial-product count.
    """
    _check_dims(a_csr.shape, b_csr.shape)
    if plan is None:
        plan = numeric_plan(a_csr.indptr, a_csr.indices, b_csr,
                            symbolic_spgemm(a_csr, b_csr))
    nb = b_csr.row_nnz_counts()
    rep = nb[a_csr.indices]
    pp = int(rep.sum())
    if plan.shape != (a_csr.shape[0], b_csr.shape[1]) \
            or plan.n_partial_products != pp:
        raise ValueError(
            f"numeric plan for a {plan.shape} product with "
            f"{plan.n_partial_products} partial products does not match "
            f"operands {a_csr.shape} @ {b_csr.shape} with {pp}")
    if pp == 0:
        matrix = CSRMatrix.empty(plan.shape)
    else:
        values = np.repeat(a_csr.data, rep)
        values *= b_csr.data.take(plan.b_index)  # faster than [] on int32
        matrix = CSRMatrix(plan.indptr.copy(), plan.indices,
                           np.bincount(plan.slot, weights=values,
                                       minlength=plan.nnz), plan.shape)
    na = np.bincount(a_csr.indices, minlength=a_csr.shape[1])
    return matrix, pp, pp - matrix.nnz, na, nb


@register_kernel("inner", "numpy")
def _inner_numpy(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                 tile_rows: int = 4,
                 plan: NumericPlan | None = None) -> SpGEMMResult:
    matrix, pp, acc, _na, _nb = _merged(a_csr, b_csr, plan)
    return SpGEMMResult(matrix=matrix, dataflow="inner",
                        partial_products=pp,
                        accumulations=max(acc, 0),
                        output_nnz=matrix.nnz,
                        multiply_ops=pp)


@register_kernel("outer", "numpy")
def _outer_numpy(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                 tile_rows: int = 4,
                 plan: NumericPlan | None = None) -> SpGEMMResult:
    matrix, pp, acc, na, nb = _merged(a_csr, b_csr, plan)
    batches = int(np.count_nonzero((na > 0) & (nb > 0)))
    return SpGEMMResult(matrix=matrix, dataflow="outer",
                        partial_products=pp,
                        accumulations=acc,
                        output_nnz=matrix.nnz,
                        multiply_ops=pp,
                        intermediate_batches=batches)


@register_kernel("row_wise", "numpy")
def _row_wise_numpy(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                    tile_rows: int = 4,
                 plan: NumericPlan | None = None) -> SpGEMMResult:
    matrix, pp, acc, _na, _nb = _merged(a_csr, b_csr, plan)
    return SpGEMMResult(matrix=matrix, dataflow="row_wise",
                        partial_products=pp,
                        accumulations=acc,
                        output_nnz=matrix.nnz,
                        multiply_ops=pp)


@register_kernel("tiled_gustavson", "numpy")
def _tiled_numpy(a_csr: CSRMatrix, b_csr: CSRMatrix, *,
                 tile_rows: int = 4,
                 plan: NumericPlan | None = None) -> SpGEMMResult:
    if tile_rows < 1:
        raise ValueError("tile_rows must be >= 1")
    matrix, pp, acc, na, nb = _merged(a_csr, b_csr, plan)
    # One MMH instruction per (A-tile, B-tile) pair of each inner index k.
    a_tiles = -(-na // tile_rows)
    b_tiles = -(-nb // tile_rows)
    mmh_instructions = int((a_tiles * b_tiles)[(na > 0) & (nb > 0)].sum())
    return SpGEMMResult(matrix=matrix, dataflow="tiled_gustavson",
                        partial_products=pp,
                        accumulations=acc,
                        output_nnz=matrix.nnz,
                        multiply_ops=pp,
                        extra={"mmh_instructions": mmh_instructions,
                               "tile_rows": tile_rows})
