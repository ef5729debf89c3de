"""Reference answers computed with numpy/scipy only — never ``repro``.

Every edge of an incidence pair has exactly one source in ``E_out`` and
one target in ``E_in``, so ``A = E_outᵀ ⊕.⊗ E_in`` has one ⊗ term per
edge, ⊕-folded over parallel edges.  That is all :func:`adjacency`
needs; the query answers below are textbook graph computations on that
array.  Weights are integers, so every ``+.×`` and ``min.+`` value is
an exact integer; only k-hop walk sums can pass 2**53, which is why
:func:`khop_matches` alone compares with a relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from perfbench.graphgen import Graph

PAIRS = ("plus_times", "min_plus")

#: Relative tolerance for k-hop walk sums (float64 folds of int64 sums).
KHOP_RTOL = 1e-12


@dataclass
class Adjacency:
    """A square sparse adjacency array over integer vertex ids."""

    csr: sp.csr_matrix
    _transposed: Optional[sp.csr_matrix] = None

    def oriented(self, direction: str) -> sp.csr_matrix:
        """Rows are out-neighbors (``"out"``) or in-neighbors (``"in"``)."""
        if direction == "out":
            return self.csr
        if self._transposed is None:
            self._transposed = self.csr.T.tocsr()
        return self._transposed

    def triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self.csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def with_edges(self, src: Sequence[int], dst: Sequence[int],
                   values: Sequence[int]) -> "Adjacency":
        """``A ⊕ delta`` under ``+`` (the served ``plus_times`` pair)."""
        delta = sp.csr_matrix(
            (np.asarray(values, dtype=np.int64),
             (np.asarray(src), np.asarray(dst))), shape=self.csr.shape)
        return Adjacency((self.csr + delta).tocsr())


def adjacency(graph: Graph, pair: str, n: int) -> Adjacency:
    """``E_outᵀ ⊕.⊗ E_in`` over ``n`` vertex ids for ``pair``."""
    if pair == "plus_times":
        csr = sp.csr_matrix(
            (graph.w_out * graph.w_in, (graph.src, graph.dst)),
            shape=(n, n), dtype=np.int64)
        csr.sum_duplicates()
        return Adjacency(csr)
    if pair == "min_plus":
        terms = graph.w_out + graph.w_in
        order = np.lexsort((terms, graph.dst, graph.src))
        src, dst = graph.src[order], graph.dst[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return Adjacency(sp.csr_matrix(
            (terms[order][first], (src[first], dst[first])), shape=(n, n)))
    raise ValueError(f"no oracle for pair {pair!r}")


def read_triples(path) -> Dict[Tuple[str, str], float]:
    """A TSV triple file as ``{(row, col): value}`` (no ``repro``)."""
    out: Dict[Tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            r, c, v = line.rstrip("\n").split("\t")
            out[(r, c)] = float(v)
    return out


def build_output_matches(path, expected: Adjacency) -> bool:
    """Whether a build's adjacency TSV equals the oracle exactly."""
    got = read_triples(path)
    rows, cols, vals = expected.triples()
    if len(got) != len(rows):
        return False
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        if got.get((f"v{r}", f"v{c}")) != float(v):
            return False
    return True


# ---------------------------------------------------------------------------
# Served answers (vertices travel as "v<id>" strings)
# ---------------------------------------------------------------------------

def _vid(name: str) -> int:
    return int(name[1:])


def _as_dict(ids: np.ndarray, vals: np.ndarray) -> Dict[str, float]:
    return {f"v{i}": float(v) for i, v in zip(ids.tolist(), vals.tolist())}


def neighbors(adj: Adjacency, vertex: str, direction: str) -> Dict[str, float]:
    row = adj.oriented(direction).getrow(_vid(vertex))
    return _as_dict(row.indices, row.data)


def degree(adj: Adjacency, vertex: str, direction: str) -> int:
    m = adj.oriented(direction)
    i = _vid(vertex)
    return int(m.indptr[i + 1] - m.indptr[i])


def khop(adj: Adjacency, vertex: str, k: int) -> Dict[str, float]:
    x = sp.csr_matrix(([1], ([0], [_vid(vertex)])),
                      shape=(1, adj.csr.shape[0]), dtype=np.int64)
    for _ in range(k):
        x = x @ adj.csr
    x.eliminate_zeros()
    return _as_dict(x.indices, x.data)


def path_lengths(adj: Adjacency, vertex: str) -> Dict[str, float]:
    dist = dijkstra(adj.csr, directed=True, indices=_vid(vertex))
    reach = np.flatnonzero(np.isfinite(dist))
    return _as_dict(reach, dist[reach])


def top_k_matches(adj: Adjacency, k: int, got: List[list]) -> bool:
    """Served ``top_k`` rows must be stored entries, in non-increasing
    value order, whose values are the ``k`` largest (ties may be
    listed in any order)."""
    data = adj.csr.data
    want = np.sort(data)[::-1][:k].astype(float).tolist()
    if [float(v) for _r, _c, v in got] != want:
        return False
    seen = set()
    for r, c, v in got:
        cell = (r, c)
        if cell in seen or adj.csr[_vid(r), _vid(c)] != v:
            return False
        seen.add(cell)
    return True


def khop_matches(want: Dict[str, float], got: Dict[str, float]) -> bool:
    if want.keys() != got.keys():
        return False
    return all(abs(float(got[v]) - w) <= KHOP_RTOL * abs(w)
               for v, w in want.items())


def answer_matches(adj: Adjacency, kind: str, params: Dict[str, str],
                   result) -> bool:
    """Whether one served ``result`` of ``kind`` is right for ``adj``."""
    vertex = params.get("vertex")
    direction = params.get("direction", "out")
    if kind == "neighbors":
        return neighbors(adj, vertex, direction) == \
            {v: float(w) for v, w in result.items()}
    if kind == "degrees":
        return result == degree(adj, vertex, direction)
    if kind == "khop":
        return khop_matches(khop(adj, vertex, int(params["k"])), result)
    if kind == "path_lengths":
        return path_lengths(adj, vertex) == \
            {v: float(w) for v, w in result.items()}
    if kind == "top_k":
        return top_k_matches(adj, int(params["k"]), result)
    raise ValueError(f"no oracle for query kind {kind!r}")
