"""Output checks against references the code under test does not produce.

SpGEMM products are compared with ``scipy.sparse`` A @ B, entry by entry,
with a relative tolerance that absorbs summation order.  Simulated
counters are compared for exact equality across repeats of one input.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Relative tolerance on product values; float64 sums of a few hundred
#: positive terms in a different order differ far below this.
RTOL = 1e-9


def to_scipy(m) -> sp.csr_matrix:
    """Any CSR-shaped object (indptr/indices/data/shape) as scipy CSR."""
    return sp.csr_matrix((np.asarray(m.data, dtype=np.float64),
                          np.asarray(m.indices), np.asarray(m.indptr)),
                         shape=tuple(m.shape))


def reference_product(a, b=None) -> sp.csr_matrix:
    """Canonical scipy product: summed duplicates, sorted indices."""
    left = to_scipy(a)
    right = left if b is None else to_scipy(b)
    product = (left @ right).tocsr()
    product.sum_duplicates()
    product.sort_indices()
    return product


def product_mismatch(output, reference: sp.csr_matrix) -> str | None:
    """Why ``output`` differs from ``reference``, or ``None`` if it
    matches."""
    if output is None:
        return "no product returned"
    got = to_scipy(output)
    if got.shape != reference.shape:
        return f"shape {got.shape} != {reference.shape}"
    got.sum_duplicates()
    got.sort_indices()
    if got.nnz != reference.nnz:
        return f"nnz {got.nnz} != {reference.nnz}"
    if not (np.array_equal(got.indptr, reference.indptr)
            and np.array_equal(got.indices, reference.indices)):
        return "sparsity pattern differs"
    if not np.allclose(got.data, reference.data, rtol=RTOL, atol=0.0):
        worst = float(np.max(np.abs(got.data - reference.data)))
        return f"values differ (max abs error {worst:.3g})"
    return None


class RepeatCheck:
    """Counters of one input must repeat exactly across runs."""

    def __init__(self) -> None:
        self.first: dict = {}

    def mismatch(self, key, counters: dict) -> str | None:
        seen = self.first.setdefault(key, counters)
        if seen != counters:
            return f"counters changed on repeat: {seen} -> {counters}"
        return None
