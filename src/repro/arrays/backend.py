"""Pluggable storage backends for :class:`AssociativeArray`.

The paper's semiring-array abstraction is independent of its storage
(GraphBLAS makes the same separation), and the two needs pull in
opposite directions:

* arbitrary value sets — sets, strings, the exotic non-associative
  algebras — need a representation that holds Python objects verbatim;
* the hot path ``A = Eoutᵀ ⊕.⊗ Ein`` and everything downstream of it
  (element-wise ⊕, reductions, the shard ⊕-merge tree) want a compiled
  sparse representation that **persists across operations** instead of
  being rebuilt from a dict and thrown away per call.

Hence two backends behind one tiny protocol:

:class:`DictBackend`
    Today's semantics verbatim: a ``{(row, col): value}`` dict of Python
    objects.  Works for every value set.  ``pinned=True`` is the
    escape hatch — a pinned dict backend refuses promotion to the
    numeric representation, so every operation takes the generic path.

:class:`NumericBackend`
    Columnar COO — ``rows``/``cols`` int64 position arrays plus a
    float64 ``vals`` array, lex-sorted by (row, col) — with lazily built
    and cached CSR/CSC views.  Arrays are immutable by convention, so
    the cached views stay valid for the array's lifetime and chained
    operations (correlation of correlations, merge trees) never pay the
    dict→CSR conversion again.  The dict view is itself materialised
    lazily, so an array that lives its whole life inside vectorised
    kernels never builds a Python dict at all.

Backend choice is automatic: arrays are born dict-backed, vectorised
fast paths promote to (and produce) numeric backends when the values
are plain numbers and the operation has a ufunc form, and everything
falls back to the dict path otherwise.  ``AssociativeArray(...,
backend=...)`` / :meth:`AssociativeArray.with_backend` override the
automatism in either direction.

Also home to the shared vectorised primitives the fast paths are built
from: coordinate-code union/apply (element-wise ops, ⊕-merge) and
key-position remapping (re-embedding, selection).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "BACKEND_KINDS",
    "VECTORIZE_MIN_NNZ",
    "DictBackend",
    "NumericBackend",
    "is_number",
    "float64_exact",
    "usable_numeric_zero",
    "numeric_values",
    "dict_to_numeric",
    "embed_lookup",
    "sorted_union",
    "union_apply",
]

#: Accepted values for the ``backend=`` escape hatch.
BACKEND_KINDS = ("auto", "dict", "numeric")

#: Below this combined nnz the fast paths keep dict-backed operands on
#: the generic implementations: conversion overhead dominates, and the
#: generic path preserves exact Python value types (int stays int) for
#: the small paper-figure arrays.  Operands *already* numeric-backed
#: skip the bailout — their conversion is paid.
VECTORIZE_MIN_NNZ = 256


def is_number(v: Any) -> bool:
    """Plain int/float (bools excluded — they are their own algebra)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: Largest integer magnitude float64 represents exactly (2⁵³).
_FLOAT64_EXACT_INT = 2 ** 53

#: The value types the bulk promotion path accepts without a per-value
#: sweep (bool is deliberately absent — it subclasses int but is its
#: own algebra).
_PLAIN_NUMBER_TYPES = frozenset((int, float))


def float64_exact(v: Any) -> bool:
    """Whether ``v`` survives the float64 cast without losing exactness.

    Integers beyond 2⁵³ don't; arrays holding them stay on the dict
    backend, where the generic paths keep arbitrary-precision ints.
    """
    if isinstance(v, int):
        return -_FLOAT64_EXACT_INT <= v <= _FLOAT64_EXACT_INT
    return True


def usable_numeric_zero(zero: Any) -> bool:
    """Whether ``zero`` can drive float64 fast paths.

    NaN is excluded: ``NaN != NaN`` would break the vectorised
    drop-entries-equal-to-zero filters, which the dict path handles
    through NaN-aware equality.
    """
    return is_number(zero) and not (isinstance(zero, float)
                                    and math.isnan(zero))


class DictBackend:
    """Python-dict storage — any value set, generic evaluation."""

    kind = "dict"
    __slots__ = ("data", "pinned")

    def __init__(self, data: Dict[Tuple[Any, Any], Any], *,
                 pinned: bool = False) -> None:
        self.data = data
        self.pinned = pinned

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __getstate__(self):
        return (self.data, self.pinned)

    def __setstate__(self, state) -> None:
        self.data, self.pinned = state


class NumericBackend:
    """Columnar (row-idx, col-idx, values) storage with cached CSR/CSC.

    Invariants: ``rows``/``cols`` are int64 positions into the owning
    array's key sets, ``vals`` is float64, entries are unique and
    lex-sorted by (row, col), and no stored value equals the owning
    array's zero.  Constructors enforce sortedness; zero-filtering is
    the caller's job (:meth:`AssociativeArray._from_numeric` does it).
    """

    kind = "numeric"
    __slots__ = ("rows", "cols", "vals", "shape", "_csr", "_csc",
                 "_csc_cols", "_dict")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: Tuple[int, int], *, presorted: bool = False) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not presorted:
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = (int(shape[0]), int(shape[1]))
        self._csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._csc: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]] = None
        self._csc_cols: Optional[np.ndarray] = None
        self._dict: Optional[Dict[Tuple[Any, Any], Any]] = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_csr(cls, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: Tuple[int, int]) -> "NumericBackend":
        """Adopt CSR arrays (indices sorted within each row) directly.

        The CSR view is seeded, so a kernel that produced CSR output
        hands the next kernel a ready-to-use compiled form for free.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        rows = np.repeat(np.arange(shape[0], dtype=np.int64),
                         np.diff(indptr))
        be = cls(rows, np.asarray(indices, dtype=np.int64),
                 np.asarray(data, dtype=np.float64), shape, presorted=True)
        be._csr = (be.vals, be.cols, indptr)
        return be

    # -- basic properties -----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    # -- compiled views (cached; arrays are immutable by convention) ----------
    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` — float64/int64 CSR in key order."""
        if self._csr is None:
            counts = np.bincount(self.rows, minlength=self.shape[0])
            indptr = np.empty(self.shape[0] + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(counts, out=indptr[1:])
            self._csr = (self.vals, self.cols, indptr)
        return self._csr

    def csc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(data, row_indices, indptr, perm)`` — the CSC view.

        ``perm`` is the permutation from (row, col) order into
        (col, row) order; it doubles as the transpose permutation.
        """
        if self._csc is None:
            perm = np.lexsort((self.rows, self.cols))
            counts = np.bincount(self.cols, minlength=self.shape[1])
            indptr = np.empty(self.shape[1] + 1, dtype=np.int64)
            indptr[0] = 0
            np.cumsum(counts, out=indptr[1:])
            self._csc = (self.vals[perm], self.rows[perm], indptr, perm)
        return self._csc

    def csc_cols(self) -> np.ndarray:
        """The column index of each entry in CSC order (``cols[perm]``
        of :meth:`csc`), cached beside the CSC view so a masked gather
        over it is one indexing step."""
        if self._csc_cols is None:
            indptr = self.csc()[2]
            self._csc_cols = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(indptr))
        return self._csc_cols

    def to_dict(self, row_keys: Tuple[Any, ...],
                col_keys: Tuple[Any, ...]) -> Dict[Tuple[Any, Any], Any]:
        """Materialise (and cache) the ``{(row, col): value}`` view."""
        if self._dict is None:
            items: Dict[Tuple[Any, Any], Any] = {}
            for i, j, v in zip(self.rows.tolist(), self.cols.tolist(),
                               self.vals.tolist()):
                items[(row_keys[i], col_keys[j])] = v
            self._dict = items
        return self._dict

    # -- structural transforms ------------------------------------------------
    def transposed(self) -> "NumericBackend":
        """The transpose backend; this backend's CSC becomes its CSR."""
        data, row_indices, indptr, perm = self.csc()
        be = NumericBackend(self.cols[perm], row_indices, data,
                            (self.shape[1], self.shape[0]), presorted=True)
        be._csr = (data, row_indices, indptr)
        return be

    def remapped(self, row_lookup: np.ndarray, col_lookup: np.ndarray,
                 shape: Tuple[int, int]) -> "NumericBackend":
        """Re-embed positions through monotone lookup arrays.

        Monotonicity (superset embeddings of sorted key sets are
        order-preserving) means the lex order survives untouched.
        """
        return NumericBackend(row_lookup[self.rows], col_lookup[self.cols],
                              self.vals, shape, presorted=True)

    # -- pickling (drop the derived views; they rebuild on demand) ------------
    def __getstate__(self):
        return (self.rows, self.cols, self.vals, self.shape)

    def __setstate__(self, state) -> None:
        self.rows, self.cols, self.vals, self.shape = state
        self._csr = None
        self._csc = None
        self._csc_cols = None
        self._dict = None


def numeric_values(values: List[Any]) -> Optional[np.ndarray]:
    """``values`` as a float64 array; ``None`` if any value is not a
    plain number — or is an int too large for float64 to hold exactly.

    Staged for bulk speed: the plain-number type gate is a single
    predicate sweep, and the 2⁵³ exactness audit only visits the (rare)
    values whose magnitude makes it relevant.
    """
    # Type gate: one C-level pass over the concrete types.  Exactly
    # {int, float} passes outright; anything else (bools — their own
    # algebra —, numpy scalars, Decimals, exotica) drops to the precise
    # per-value predicate, which keeps today's accept/reject semantics
    # without paying interpreter cost on the overwhelmingly common case.
    if not set(map(type, values)) <= _PLAIN_NUMBER_TYPES:
        if not all(is_number(v) for v in values):
            return None
    try:
        vals = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    # Exactness audit only where magnitude makes it relevant: ints at
    # or beyond 2⁵³ may have rounded in the cast above.
    with np.errstate(invalid="ignore"):
        big = np.abs(vals) >= float(_FLOAT64_EXACT_INT)
    if bool(big.any()):
        for i in np.flatnonzero(big).tolist():
            if not float64_exact(values[i]):
                return None
    return vals


def dict_to_numeric(
    data: Dict[Tuple[Any, Any], Any],
    row_positions: Dict[Any, int],
    col_positions: Dict[Any, int],
    shape: Tuple[int, int],
) -> Optional[NumericBackend]:
    """Convert dict storage to columnar form; ``None`` when
    :func:`numeric_values` refuses the values (the caller falls back to
    the dict path).

    Promotion sits on the critical path of every cold vectorised
    operation (the expression engine's fused kernels promote freshly
    ingested arrays before their first product), so the conversion is
    one C-level pass per column instead of per-entry scalar stores.
    """
    if not data:
        return NumericBackend(np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.float64), shape)
    vals = numeric_values(list(data.values()))
    if vals is None:
        return None
    rows = np.array([row_positions[r] for r, _c in data], dtype=np.int64)
    cols = np.array([col_positions[c] for _r, c in data], dtype=np.int64)
    return NumericBackend(rows, cols, vals, shape)


def embed_lookup(old_keys: Iterable[Any],
                 new_positions: Dict[Any, int],
                 count: int) -> np.ndarray:
    """int64 array mapping old key positions into a new key set, ``-1``
    where the new set lacks the key (callers decide whether a stored
    entry landing on ``-1`` is an error or a drop)."""
    out = np.full(count, -1, dtype=np.int64)
    for i, k in enumerate(old_keys):
        p = new_positions.get(k)
        if p is not None:
            out[i] = p
    return out


def _codes(be: NumericBackend, ncols: int) -> np.ndarray:
    """Flat (row, col) coordinate codes — sorted ascending because the
    backend is lex-sorted."""
    return be.rows * np.int64(ncols) + be.cols


def _gather(codes: np.ndarray, vals: np.ndarray, union: np.ndarray,
            fill: float) -> np.ndarray:
    """Values of ``codes``→``vals`` at every union coordinate, ``fill``
    where absent."""
    out = np.full(union.shape, fill, dtype=np.float64)
    if codes.size:
        idx = np.minimum(np.searchsorted(codes, union), codes.size - 1)
        hit = codes[idx] == union
        out[hit] = vals[idx[hit]]
    return out


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two ascending duplicate-free int64 runs.

    Equals ``np.union1d(a, b)``, but a stable sort of the concatenation
    merges the two runs in linear time where ``union1d`` re-sorts (and,
    in NumPy 2.4, hashes) from scratch; an adjacent-duplicate mask then
    drops the coordinates both runs hold.
    """
    union = np.concatenate((a, b))
    if union.size < 2:
        return union
    union.sort(kind="stable")
    keep = np.empty(union.size, dtype=bool)
    keep[0] = True
    np.not_equal(union[1:], union[:-1], out=keep[1:])
    return union[keep]


def union_apply(
    a: NumericBackend,
    b: NumericBackend,
    ufunc: np.ufunc,
    a_zero: float,
    b_zero: float,
    result_zero: float,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ufunc`` over the union pattern of two aligned backends.

    The vectorised form of union-pattern element-wise evaluation:
    unstored entries read as each operand's zero, the ufunc is applied
    at every union coordinate (so non-identity behaviour at the zeros —
    e.g. ⊗ with an annihilator — is honoured exactly as the generic
    path does), and results equal to ``result_zero`` are dropped.
    Returns filtered, lex-sorted ``(rows, cols, vals)``.
    """
    ncols = shape[1]
    ca = _codes(a, ncols)
    cb = _codes(b, ncols)
    union = sorted_union(ca, cb)
    if union.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    out = ufunc(_gather(ca, a.vals, union, a_zero),
                _gather(cb, b.vals, union, b_zero))
    out = np.asarray(out, dtype=np.float64)
    keep = out != result_zero
    union, out = union[keep], out[keep]
    return union // ncols, union % ncols, out
