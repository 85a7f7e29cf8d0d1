"""Seeded inputs for every workload.

Structure comes from the repository's graph generators (the ``datasets``
layer); values are drawn here from the run's seed, uniform in [0.5, 1.5),
so the oracle checks real arithmetic rather than integer path counts.
Sizes are fixed per workload and only the wiring and values change with
the seed, so runs on different seeds do comparable work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import CSRMatrix
from repro.datasets import (
    barabasi_albert_graph,
    kronecker_power_law_graph,
    mesh_graph_2d,
    road_network_graph,
)


@dataclass(frozen=True)
class Graph:
    """One generator call: family, node count and its size parameter."""

    family: str  # "ba" | "kron" | "road" | "mesh"
    nodes: int
    degree: int = 0  # BA attach count; Kronecker edges per node


@dataclass(frozen=True)
class Profile:
    """Input sizes of every workload (``FULL`` for measurement, ``TINY``
    for the self-tests)."""

    analytic: tuple[Graph, ...]
    cycle: tuple[Graph, ...]
    fanout_pool: tuple[Graph, ...]
    fanout_jobs: int
    serve_ref: tuple[Graph, ...]
    serve_gnn: Graph
    serve_fresh: Graph
    serve_rate_rps: float
    serve_limit_ms: float


FULL = Profile(
    # Three wirings of each Kronecker graph, whose cost barely moves with
    # the seed: as many graphs run faster than the 2048-node ones as run
    # slower, so the median falls mid-cluster and p90 inside the 4096s.
    analytic=((Graph("road", 4000), Graph("ba", 2000, 4),
               Graph("ba", 2400, 3))
              + (Graph("kron", 2048, 4),) * 3
              + (Graph("kron", 4096, 2),) * 3),
    cycle=(Graph("kron", 256, 1), Graph("road", 256)),
    fanout_pool=(Graph("ba", 160, 3), Graph("kron", 256, 2),
                 Graph("ba", 240, 3), Graph("road", 300),
                 Graph("kron", 256, 3), Graph("road", 400),
                 Graph("ba", 320, 3), Graph("kron", 256, 2)),
    fanout_jobs=16,
    serve_ref=(Graph("ba", 400, 4), Graph("kron", 512, 3),
               Graph("ba", 800, 3), Graph("road", 1000)),
    serve_gnn=Graph("kron", 256, 3),
    serve_fresh=Graph("kron", 256, 3),
    serve_rate_rps=35.0,
    serve_limit_ms=250.0,
)

TINY = Profile(
    analytic=(Graph("ba", 60, 3), Graph("kron", 64, 3), Graph("road", 64)),
    cycle=(Graph("ba", 24, 2), Graph("mesh", 25)),
    fanout_pool=(Graph("ba", 40, 2), Graph("kron", 48, 2)),
    fanout_jobs=4,
    serve_ref=(Graph("ba", 48, 2), Graph("road", 64)),
    serve_gnn=Graph("kron", 40, 2),
    serve_fresh=Graph("kron", 32, 2),
    serve_rate_rps=20.0,
    serve_limit_ms=2000.0,
)


def _structure(graph: Graph, seed: int):
    if graph.family == "ba":
        return barabasi_albert_graph(graph.nodes, graph.degree, seed=seed)
    if graph.family == "kron":
        return kronecker_power_law_graph(graph.nodes,
                                         graph.degree * graph.nodes,
                                         seed=seed, symmetric=True)
    if graph.family == "road":
        return road_network_graph(graph.nodes, seed=seed)
    if graph.family == "mesh":
        return mesh_graph_2d(graph.nodes, seed=seed)
    raise ValueError(f"unknown graph family {graph.family!r}")


class InputMaker:
    """Makes seeded operands and accumulates generation time."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.gen_s = 0.0

    def operand(self, graph: Graph, index: int) -> CSRMatrix:
        """Operand ``index`` of a workload: the same (seed, index) always
        gives the same matrix."""
        start = time.perf_counter()
        sub_seed = self.seed * 1000 + index
        coo = _structure(graph, sub_seed)
        canonical = sp.csr_matrix(
            (np.ones(len(coo.rows)), (coo.rows, coo.cols)),
            shape=coo.shape)
        canonical.sum_duplicates()
        canonical.sort_indices()
        rng = np.random.default_rng(sub_seed)
        values = rng.uniform(0.5, 1.5, size=canonical.nnz)
        matrix = CSRMatrix(canonical.indptr.astype(np.int64),
                           canonical.indices.astype(np.int64),
                           values, tuple(canonical.shape))
        self.gen_s += time.perf_counter() - start
        return matrix
