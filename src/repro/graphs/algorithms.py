"""Graph algorithms over adjacency arrays and op-pairs.

The reason adjacency arrays matter — the paper's opening sentence — is that
they "can be processed with a variety of algorithms".  This module provides
the classic semiring formulations, consuming the
:class:`~repro.arrays.associative.AssociativeArray` adjacency arrays this
library constructs:

* the vector–matrix product ``x ⊕.⊗ A`` and k-hop frontiers ``x ⊕.⊗ Aᵏ``;
* BFS levels via repeated ``∨.∧`` vector-matrix products;
* single-source shortest paths via ``min.+`` relaxation (Bellman–Ford);
* widest ("maximum bottleneck") paths via ``max.min``;
* weakly connected components;
* triangle counting on the undirected pattern;
* degree arrays.

Vectors are represented as ``{vertex: value}`` mappings with zeros
elided, matching the sparse-array philosophy.  Internally every numeric
``x ⊕.⊗ A`` runs through one array-carried kernel (:func:`_vxm`);
multi-hop algorithms carry ``(index, value)`` arrays between hops, and
k-hop frontiers and path lengths come back as :class:`VertexValues` —
the final arrays behind a read-only mapping, so a served answer goes
from the kernel to its JSON body without a per-vertex dict.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.graphs.digraph import GraphError
from repro.obs.trace import span
from repro.values.equality import values_equal

__all__ = [
    "VertexValues",
    "semiring_vecmat",
    "khop_frontier",
    "bfs_levels",
    "shortest_path_lengths",
    "widest_path_widths",
    "weakly_connected_components",
    "triangle_count",
    "out_degrees",
    "in_degrees",
]


def _square_vertex_array(adj: AssociativeArray) -> None:
    if adj.row_keys != adj.col_keys:
        raise GraphError(
            "algorithm requires a square adjacency array (row and column "
            "key sets equal); re-embed with with_keys() over the vertex "
            "union first")


# ---------------------------------------------------------------------------
# x ⊕.⊗ A
# ---------------------------------------------------------------------------

def _vector_backend(adj: AssociativeArray, op_pair):
    """The numeric backend :func:`_vxm` runs on, or ``None``.

    ``None`` sends the caller to the per-edge reference loop:
    ufunc-less or non-numeric op-pairs, NaN zeros, arrays holding
    non-numeric values, and dict-backed arrays below the promotion
    threshold (converting them would cost more than the loop).
    """
    from repro.arrays.backend import VECTORIZE_MIN_NNZ, usable_numeric_zero
    if not (op_pair.has_ufuncs and op_pair.is_numeric):
        return None
    if not usable_numeric_zero(op_pair.zero):
        return None
    if adj.backend != "numeric" and adj.nnz < VECTORIZE_MIN_NNZ:
        return None
    return adj.numeric_backend()


#: Push while the frontier's out-edges number at most 1/PUSH_FRACTION of
#: ``A``'s entries; pull beyond (measured crossover on R-MAT graphs).
PUSH_FRACTION = 4


def _row_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions of the CSR entries of the rows starting at ``starts``
    with lengths ``lens``, row after row."""
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if ends.size else 0) + \
        np.repeat(starts - (ends - lens), lens)


def _vxm(nb, idx: np.ndarray, xv: np.ndarray,
         op_pair) -> Tuple[np.ndarray, np.ndarray]:
    """``y = x ⊕.⊗ A`` on ``(index, value)`` arrays — the one numeric
    vector–matrix product.

    ``idx`` holds the frontier's distinct row positions in ascending
    order and ``xv`` their values; returns the output's column
    positions (ascending) and values, with the op-pair's zero elided.
    Direction-optimising, as in Beamer et al.'s BFS: a sparse frontier
    *pushes* — gathers its CSR rows, then stable-sorts the terms by
    column — while a dense one *pulls* through the CSC view, masking
    ``A``'s entries to the frontier's rows, so the work tracks the
    frontier, not ``nnz(A)``.  Both leave each output column's terms
    adjacent and in ascending row order — exactly the reference loop's
    fold order — for one ``⊗`` ufunc call and a ``⊕`` fold per column
    (:func:`~repro.arrays.matmul.fold_grouped`).
    """
    from repro.arrays.matmul import fold_grouped
    data, indices, indptr = nb.csr()
    starts = indptr[idx]
    lens = indptr[idx + 1] - starts
    total = int(lens.sum())
    if total * PUSH_FRACTION <= nb.nnz:
        pos = _row_positions(starts, lens)
        order = np.argsort(indices[pos], kind="stable")
        pos = pos[order]
        cols = indices[pos]
        terms = op_pair.mul.ufunc(np.repeat(xv, lens)[order], data[pos])
    else:
        present = np.zeros(nb.shape[0], dtype=bool)
        xvals = np.zeros(nb.shape[0], dtype=np.float64)
        present[idx] = True
        xvals[idx] = xv
        col_data, row_idx, _col_ptr, _perm = nb.csc()
        keep = present[row_idx]
        cols = nb.csc_cols()[keep]
        terms = op_pair.mul.ufunc(xvals[row_idx[keep]], col_data[keep])
    (cols,), vals = fold_grouped((cols,), terms, op_pair.add.ufunc)
    nonzero = vals != float(op_pair.zero)
    return cols[nonzero], vals[nonzero]


def _frontier_arrays(vector: Dict[Any, Any], adj: AssociativeArray
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``vector`` as ``(row position, value)`` arrays in row order; keys
    outside the row key set are dropped.  ``None`` when a value is not
    a number."""
    from repro.arrays.backend import is_number
    row_pos = adj.row_keys.position_map()
    idx = []
    xv = []
    for k, v in vector.items():
        p = row_pos.get(k)
        if p is None:
            continue
        if not is_number(v):
            return None
        idx.append(p)
        xv.append(float(v))
    idx_arr = np.asarray(idx, dtype=np.int64)
    order = np.argsort(idx_arr)
    return idx_arr[order], np.asarray(xv, dtype=np.float64)[order]


class VertexValues(Mapping):
    """An immutable ``{vertex: value}`` answer backed by two arrays.

    ``positions`` holds ascending positions into ``keyset`` (a
    :class:`~repro.arrays.keys.KeySet`) and ``data`` the matching
    float64 values; both arrays are made read-only, so an answer the
    query cache hands to many readers cannot be changed under them.
    Reading it as a mapping builds the dict once, on first use; code
    that only needs the arrays (the HTTP encoder) never does.  Equality
    with any mapping is by items, both ways round.
    """

    __slots__ = ("positions", "data", "keyset", "_dict")

    def __init__(self, positions: np.ndarray, data: np.ndarray,
                 keyset) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        positions.flags.writeable = False
        data.flags.writeable = False
        self.positions = positions
        self.data = data
        self.keyset = keyset
        self._dict: Optional[Dict[Any, float]] = None

    def _items(self) -> Dict[Any, float]:
        d = self._dict
        if d is None:
            d = dict(zip(map(self.keyset.keys().__getitem__,
                             self.positions.tolist()),
                         self.data.tolist()))
            self._dict = d
        return d

    def __getitem__(self, key: Any) -> float:
        return self._items()[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items())

    def __len__(self) -> int:
        return int(self.positions.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return self._items() == (other if isinstance(other, dict)
                                     else dict(other.items()))
        return NotImplemented

    def __repr__(self) -> str:
        # Prints as the dict it stands for, as answers always have.
        return repr(self._items())


def semiring_vecmat(
    vector: Dict[Any, Any],
    adj: AssociativeArray,
    op_pair,
) -> Dict[Any, Any]:
    """``y = x ⊕.⊗ A``: sparse vector–matrix product over an op-pair.

    ``y(j) = ⊕_i x(i) ⊗ A(i, j)`` folded in row-key order; entries equal
    to the op-pair's zero are elided.  Keys of ``vector`` outside
    ``adj``'s row key set are ignored.

    For ufunc op-pairs over a numeric-backed adjacency the product runs
    through the array-carried kernel (:func:`_vxm`), with dicts only
    at this boundary.  Everything else (exotic value sets, ufunc-less
    ops, NaN zeros, tiny dict-backed arrays) takes the per-edge
    reference loop below.
    """
    if not vector:
        return {}
    nb = _vector_backend(adj, op_pair)
    arrays = _frontier_arrays(vector, adj) if nb is not None else None
    if arrays is not None:
        cols, vals = _vxm(nb, *arrays, op_pair)
        keys = adj.col_keys.keys()
        return dict(zip(map(keys.__getitem__, cols.tolist()), vals.tolist()))
    terms: Dict[Any, list] = {}
    row_order = {k: i for i, k in enumerate(adj.row_keys)}
    items = sorted(((i, v) for i, v in vector.items() if i in row_order),
                   key=lambda iv: row_order[iv[0]])
    cols_of: Dict[Any, list] = {}
    for (r, c), av in adj.to_dict().items():
        cols_of.setdefault(r, []).append((c, av))
    for i, xv in items:
        for c, av in cols_of.get(i, ()):
            terms.setdefault(c, []).append(op_pair.multiply(xv, av))
    out = {}
    for c, ts in terms.items():
        val = op_pair.fold_add(ts)
        if not op_pair.is_zero(val):
            out[c] = val
    return out


def khop_frontier(
    adj: AssociativeArray,
    source: Any,
    k: int,
    op_pair,
) -> Mapping:
    """The k-hop frontier ``x ⊕.⊗ Aᵏ`` from ``x = {source: 1}``.

    ``k = 0`` returns the seed itself, as a dict.  Over a square
    numeric-backed adjacency the frontier stays as ``(index, value)``
    arrays from hop to hop (:func:`_vxm`), stops early once it empties,
    and comes back as :class:`VertexValues`.  Other inputs loop
    :func:`semiring_vecmat` on dicts; so do degenerate algebras
    whose ``1`` equals their ``0``, where the seed vector is not
    sparse-representable.  A ``source`` outside the row key set reaches
    nothing.
    """
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    frontier = {source: op_pair.one}
    if k == 0:
        return frontier
    nb = _vector_backend(adj, op_pair)
    if (nb is None or values_equal(op_pair.one, op_pair.zero)
            or adj.row_keys != adj.col_keys):
        with span("graphs.khop", k=k, kernel="vecmat_loop"):
            for _ in range(k):
                if not frontier:
                    break
                frontier = semiring_vecmat(frontier, adj, op_pair)
        return frontier
    pos = adj.row_keys.position_map().get(source)
    idx = np.array([] if pos is None else [pos], dtype=np.int64)
    vals = np.full(idx.size, float(op_pair.one))
    with span("graphs.khop", k=k, kernel="vxm"):
        for _ in range(k):
            if not idx.size:
                break
            idx, vals = _vxm(nb, idx, vals, op_pair)
    return VertexValues(idx, vals, adj.col_keys)


def bfs_levels(
    adj: AssociativeArray,
    source: Any,
    *,
    max_levels: Optional[int] = None,
) -> Dict[Any, int]:
    """Breadth-first levels from ``source`` following edge direction.

    Works on the nonzero *pattern* (any value set): level 0 is the source,
    level ``k`` the vertices first reached after ``k`` hops.  Over a
    numeric backend each level pushes the frontier through the CSR
    rows with a visited mask (the pattern of ``∨.∧`` frontier
    expansion); other inputs walk a successor dict.
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    limit = max_levels if max_levels is not None else len(adj.row_keys)
    nb = _degree_backend(adj)
    if nb is not None:
        return _bfs_levels_csr(nb, adj.row_keys, source, limit)
    succ: Dict[Any, list] = {}
    for (r, c) in adj.nonzero_pattern():
        succ.setdefault(r, []).append(c)
    levels = {source: 0}
    frontier = [source]
    level = 0
    while frontier and level < limit:
        level += 1
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in levels:
                    levels[v] = level
                    nxt.append(v)
        frontier = nxt
    return levels


def _bfs_levels_csr(nb, keys, source: Any, limit: int) -> Dict[Any, int]:
    """:func:`bfs_levels` over ``nb.csr()``: each level gathers the
    frontier's CSR rows and keeps the unvisited targets."""
    _data, indices, indptr = nb.csr()
    level_of = np.full(len(keys), -1, dtype=np.int64)
    frontier = np.array([keys.index(source)], dtype=np.int64)
    level_of[frontier] = 0
    level = 0
    while frontier.size and level < limit:
        level += 1
        starts = indptr[frontier]
        targets = indices[_row_positions(starts,
                                         indptr[frontier + 1] - starts)]
        frontier = np.unique(targets[level_of[targets] < 0])
        level_of[frontier] = level
    reached = np.flatnonzero(level_of >= 0)
    order = np.argsort(level_of[reached], kind="stable")
    reached = reached[order]
    return dict(zip(map(keys.keys().__getitem__, reached.tolist()),
                    level_of[reached].tolist()))


def _relax(adj: AssociativeArray, source: Any, pair_name: str,
           seed: float, improves: Callable[[Any, Any], Any],
           missing: float) -> Mapping:
    """Bellman–Ford-style relaxation to a fixpoint (≤ |V| rounds).

    Each round computes ``r = d ⊕.⊗ A`` over the op-pair ``pair_name``
    and keeps ``r(v)`` wherever ``improves(r(v), d(v))`` (an unreached
    vertex counts as ``missing``).  Over a numeric-backed adjacency
    ``d`` lives in one dense array, each round is one :func:`_vxm`
    pushed from only the vertices whose value improved in the round
    before (the source, first) — an unchanged vertex would offer the
    same terms it already offered — and the answer is
    :class:`VertexValues`.  Otherwise each round is a reference
    :func:`semiring_vecmat` on dicts from every vertex reached so far.
    Both reach the same fixpoint when one exists (no cycle keeps
    improving, e.g. no negative ``min.+`` cycle).
    """
    _square_vertex_array(adj)
    if source not in adj.row_keys:
        raise GraphError(f"source {source!r} not a vertex")
    from repro.values.semiring import get_op_pair
    op_pair = get_op_pair(pair_name)
    n = len(adj.row_keys)
    nb = _vector_backend(adj, op_pair)
    if nb is None:
        best = {source: seed}
        with span("graphs.relax", pair=pair_name, kernel="reference"):
            for _ in range(n):
                relaxed = semiring_vecmat(best, adj, op_pair)
                better = {v: d for v, d in relaxed.items()
                          if improves(d, best.get(v, missing))}
                if not better:
                    break
                best.update(better)
        return best
    values = np.full(n, missing, dtype=np.float64)
    reached = np.zeros(n, dtype=bool)
    start = adj.row_keys.index(source)
    values[start] = seed
    reached[start] = True
    changed = np.array([start], dtype=np.int64)
    with span("graphs.relax", pair=pair_name, kernel="vxm"):
        for _ in range(n):
            cols, vals = _vxm(nb, changed, values[changed], op_pair)
            better = improves(vals, values[cols])
            changed = cols[better]
            if not changed.size:
                break
            values[changed] = vals[better]
            reached[changed] = True
    idx = np.flatnonzero(reached)
    return VertexValues(idx, values[idx], adj.row_keys)


def shortest_path_lengths(
    adj: AssociativeArray,
    source: Any,
) -> Mapping:
    """Single-source shortest path lengths by ``min.+`` relaxation.

    ``adj`` holds non-negative edge weights (parallel edges should already
    be collapsed, e.g. by constructing the adjacency array over ``min.+``).
    Runs Bellman–Ford-style rounds until fixpoint (≤ |V| rounds).
    """
    return _relax(adj, source, "min_plus", 0.0, operator.lt, math.inf)


def widest_path_widths(
    adj: AssociativeArray,
    source: Any,
) -> Mapping:
    """Maximum-bottleneck path widths by ``max.min`` relaxation.

    The Section IV reading of ``max.min``: each relaxation keeps, per
    target, "the largest of all the shortest connections".  The source has
    width +∞ by convention.
    """
    return _relax(adj, source, "max_min", math.inf, operator.gt, 0.0)


def weakly_connected_components(adj: AssociativeArray) -> Dict[Any, int]:
    """Component index per vertex on the undirected pattern.

    Components are numbered in the order of their smallest vertex key.
    """
    _square_vertex_array(adj)
    nbrs: Dict[Any, set] = {v: set() for v in adj.row_keys}
    for (r, c) in adj.nonzero_pattern():
        nbrs[r].add(c)
        nbrs[c].add(r)
    comp: Dict[Any, int] = {}
    label = 0
    for v in adj.row_keys:
        if v in comp:
            continue
        stack = [v]
        comp[v] = label
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in comp:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


def triangle_count(adj: AssociativeArray) -> int:
    """Number of undirected triangles in the nonzero pattern.

    Self-loops are ignored; parallel/antiparallel edges collapse to one
    undirected edge.  Counting is per unordered vertex triple.
    """
    _square_vertex_array(adj)
    nbrs: Dict[Any, set] = {}
    for (r, c) in adj.nonzero_pattern():
        if r == c:
            continue
        nbrs.setdefault(r, set()).add(c)
        nbrs.setdefault(c, set()).add(r)
    order = {v: i for i, v in enumerate(adj.row_keys)}
    count = 0
    for u, nu in nbrs.items():
        for v in nu:
            if order[v] <= order[u]:
                continue
            for w in nu & nbrs.get(v, set()):
                if order[w] > order[v]:
                    count += 1
    return count


def _degree_backend(adj: AssociativeArray):
    """The numeric backend for degree counting, or ``None``.

    Mirrors the reductions-module bailout: an array not already numeric
    with nnz below ``VECTORIZE_MIN_NNZ`` is cheaper to count generically
    than to promote.
    """
    from repro.arrays.backend import VECTORIZE_MIN_NNZ
    if adj.backend != "numeric" and adj.nnz < VECTORIZE_MIN_NNZ:
        return None
    return adj.numeric_backend()


def out_degrees(adj: AssociativeArray) -> Dict[Any, int]:
    """Number of stored entries per row (out-degree in the pattern).

    Numeric-backed arrays count row lengths straight off the cached CSR
    index pointer (one vectorised ``diff``, no per-entry Python loop);
    everything else falls back to iterating the stored pattern.  Small
    dict-backed arrays stay generic (the usual ``VECTORIZE_MIN_NNZ``
    bailout — promotion would cost more than the count).
    """
    nb = _degree_backend(adj)
    if nb is not None:
        _data, _indices, indptr = nb.csr()
        counts = np.diff(indptr)
        return dict(zip(adj.row_keys.keys(), counts.tolist()))
    deg: Dict[Any, int] = {v: 0 for v in adj.row_keys}
    for (r, _c) in adj.nonzero_pattern():
        deg[r] += 1
    return deg


def in_degrees(adj: AssociativeArray) -> Dict[Any, int]:
    """Number of stored entries per column (in-degree in the pattern).

    The numeric fast path mirrors :func:`out_degrees` over the cached
    CSC index pointer — building it here also warms the CSC view that
    per-column neighbor queries reuse.
    """
    nb = _degree_backend(adj)
    if nb is not None:
        _data, _rows, indptr, _perm = nb.csc()
        counts = np.diff(indptr)
        return dict(zip(adj.col_keys.keys(), counts.tolist()))
    deg: Dict[Any, int] = {v: 0 for v in adj.col_keys}
    for (_r, c) in adj.nonzero_pattern():
        deg[c] += 1
    return deg
