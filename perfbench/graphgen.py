"""Seeded R-MAT input generator for the benchmark.

The program under test never sees this module: it receives only the
files written by :func:`write_inputs` — an incidence TSV pair
(``edge<TAB>vertex<TAB>weight``) for the build workload and the
``+.×`` adjacency TSV (``src<TAB>dst<TAB>value``) the HTTP workloads
serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Graph500 R-MAT quadrant probabilities (d = 1 - a - b - c = 0.05).
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19
SCALE = 14
N_EDGES = 200_000
MAX_WEIGHT = 9


@dataclass(frozen=True)
class Graph:
    """One generated multigraph: edge ``i`` runs ``src[i] -> dst[i]``
    with incidence weights ``w_out[i]`` (in ``E_out``) and ``w_in[i]``
    (in ``E_in``), all integers."""

    src: np.ndarray
    dst: np.ndarray
    w_out: np.ndarray
    w_in: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.src)


def rmat(seed: int, scale: int = SCALE, n_edges: int = N_EDGES) -> Graph:
    """R-MAT edges with integer weights 1..9 on both incidence arrays.

    Each of the ``scale`` bit levels picks a quadrant per edge with the
    Graph500 probabilities; vertex ids are then permuted so that the
    hubs are not all at small ids.
    """
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(n_edges)
        row_bit = r >= RMAT_A + RMAT_B
        col_bit = ((r >= RMAT_A) & (r < RMAT_A + RMAT_B)) | \
            (r >= RMAT_A + RMAT_B + RMAT_C)
        src |= row_bit.astype(np.int64) << bit
        dst |= col_bit.astype(np.int64) << bit
    perm = rng.permutation(1 << scale)
    return Graph(src=perm[src], dst=perm[dst],
                 w_out=rng.integers(1, MAX_WEIGHT + 1, n_edges),
                 w_in=rng.integers(1, MAX_WEIGHT + 1, n_edges))


def vertex_name(ids: np.ndarray) -> np.ndarray:
    """Vertex keys as they appear in the TSV files (``v<id>``)."""
    return np.char.add("v", ids.astype(str))


def _write_columns(path: Path, *columns: np.ndarray) -> None:
    lines = columns[0].astype(str)
    for col in columns[1:]:
        lines = np.char.add(np.char.add(lines, "\t"), col.astype(str))
    path.write_text("\n".join(lines.tolist()) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class InputFiles:
    eout: Path
    ein: Path
    adjacency: Path


def write_inputs(graph: Graph, adjacency, directory: Path) -> InputFiles:
    """Write the incidence pair and ``adjacency`` (a
    :class:`~perfbench.oracle.Adjacency`) as TSV under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    keys = np.char.add("e", np.arange(graph.n_edges).astype(str))
    files = InputFiles(directory / "eout.tsv", directory / "ein.tsv",
                       directory / "adjacency.tsv")
    _write_columns(files.eout, keys, vertex_name(graph.src), graph.w_out)
    _write_columns(files.ein, keys, vertex_name(graph.dst), graph.w_in)
    rows, cols, vals = adjacency.triples()
    _write_columns(files.adjacency, vertex_name(rows), vertex_name(cols),
                   vals)
    return files
