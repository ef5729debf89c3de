"""⊕-merge tree: combine per-shard adjacency arrays, spilling to disk.

For an edge partition ``K = K₁ ∪ … ∪ Kₙ`` the paper's construction
distributes over the contraction axis:

    ``A = ⊕ₛ (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)``

*provided* ``⊕`` is associative and commutative — the per-shard folds
and the merge tree reassociate and reorder the Definition I.3 edge-key
fold.  The gate here therefore mirrors
:class:`~repro.core.streaming.StreamingAdjacencyBuilder`: the op-pair
must pass the Theorem II.1 certification **and** carry an
associative/commutative ``⊕``, unless the caller opts out with
``unsafe_ok=True`` (in which case the result is *not* guaranteed to
equal batch construction — exactly as the theorem predicts).

Merging is pairwise over a balanced binary tree.  The spilled variant
holds at most two operands in memory at any time and deletes inputs as
soon as their parent is written, so peak memory is O(result), not
O(result × shards).

Spills of a ``"coded"`` shard set never pickle (:func:`save_spill`):
they all share the set's global vertex key sets, so the merge embeds
nothing and unions no keys.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.arrays.io import atomic_write, read_tsv_columns
from repro.arrays.keys import KeySet
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.arrays.backend import (
    DictBackend,
    embed_lookup,
    union_apply,
    usable_numeric_zero,
)
from repro.arrays.elementwise import elementwise_add, vectorizable_operands
from repro.core.certify import Certification, certify
from repro.shard.manifest import RECORD, ShardError, check_codes, save_npy
from repro.values.equality import values_equal
from repro.values.semiring import OpPair

__all__ = [
    "check_merge_safety",
    "oplus_union",
    "oplus_fold",
    "merge_adjacency",
    "merge_spilled",
    "save_spill",
]


def check_merge_safety(
    op_pair: OpPair,
    *,
    unsafe_ok: bool = False,
    certification: Optional[Certification] = None,
    certification_seed: int = 0xD4,
) -> Optional[Certification]:
    """Certify that sharded construction equals batch for ``op_pair``.

    Raises :class:`ShardError` when the pair fails the Theorem II.1
    criteria or its ``⊕`` is flagged non-associative/non-commutative —
    unless ``unsafe_ok``.  Pass a precomputed ``certification`` to avoid
    re-running the criteria search (the plan front-end certifies once at
    construction and reuses it).  Returns the certification used, or
    ``None`` when ``unsafe_ok`` made computing one unnecessary.
    """
    if unsafe_ok:
        return certification
    cert = certification if certification is not None else certify(
        op_pair, seed=certification_seed, build_witness=False)
    if not cert.safe:
        raise ShardError(
            "op-pair fails the Theorem II.1 criteria; sharded construction "
            "would not be guaranteed to produce an adjacency array.  Pass "
            "unsafe_ok=True to override.\n" + cert.criteria.describe())
    if not (op_pair.add.associative and op_pair.add.commutative):
        raise ShardError(
            f"⊕ ({op_pair.add.name}) is not associative and commutative; "
            "the shard merge tree reorders the edge-key fold, so the "
            "merged result may differ from batch construction.  Pass "
            "unsafe_ok=True to override.")
    return cert


def oplus_union(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
) -> AssociativeArray:
    """``a ⊕ b`` over the union of both key sets.

    Shard results cover different (overlapping) vertex sets; the merge
    embeds both into the union before the element-wise ``⊕``, which is
    exact because absent entries read as the shared zero — ``⊕``'s
    identity.  Numeric-backed shard results take a fully vectorised
    path (union key sets → monotone index remap → ufunc ⊕ over the
    coordinate-code union), so the merge tree stops being
    entry-at-a-time; exotic value sets fall back to the generic
    re-embed + element-wise evaluation.
    """
    registry = get_registry()
    started = time.perf_counter()
    merged = _oplus_union_vectorized(a, b, op_pair)
    path = "vectorized"
    if merged is None:
        path = "generic"
        if a.row_keys != b.row_keys or a.col_keys != b.col_keys:
            a = a.with_keys(a.row_keys.union(b.row_keys),
                            a.col_keys.union(b.col_keys))
            b = b.with_keys(a.row_keys, a.col_keys)
        merged = elementwise_add(a, b, op_pair.add)
    registry.counter("shard_merges_total", "Pairwise ⊕-merges performed",
                     path=path).inc()
    registry.histogram(
        "shard_merge_seconds", "Wall time of one pairwise ⊕-merge"
    ).observe(time.perf_counter() - started)
    return merged


def _oplus_union_vectorized(
    a: AssociativeArray,
    b: AssociativeArray,
    op_pair: OpPair,
) -> Optional[AssociativeArray]:
    """The numeric fast path of :func:`oplus_union`; None when inapplicable.

    Requires a ufunc ``⊕``, a shared plain-numeric zero, and operands on
    (or promotable to) the numeric backend; small dict-backed operands
    stay generic so value types are preserved for the tiny cases.
    """
    add = op_pair.add
    if add.ufunc is None:
        return None
    if not (usable_numeric_zero(a.zero) and values_equal(a.zero, b.zero)):
        return None
    if not values_equal(add(a.zero, b.zero), a.zero):
        return None                # generic path raises the proper error
    backends = vectorizable_operands(a, b)
    if backends is None:
        return None
    na, nb = backends
    rk, ck = a.row_keys, a.col_keys
    if rk != b.row_keys or ck != b.col_keys:
        rk = rk.union(b.row_keys)
        ck = ck.union(b.col_keys)
        shape = (len(rk), len(ck))
        rpos, cpos = rk.position_map(), ck.position_map()
        # Embedding sorted key sets into their sorted union is monotone,
        # so the remapped backends stay lex-sorted — no re-sort.
        na = na.remapped(
            embed_lookup(a.row_keys, rpos, len(a.row_keys)),
            embed_lookup(a.col_keys, cpos, len(a.col_keys)), shape)
        nb = nb.remapped(
            embed_lookup(b.row_keys, rpos, len(b.row_keys)),
            embed_lookup(b.col_keys, cpos, len(b.col_keys)), shape)
    zero = float(a.zero)
    rows, cols, vals = union_apply(na, nb, add.ufunc, zero, zero, zero,
                                   (len(rk), len(ck)))
    return AssociativeArray._from_numeric(
        rows, cols, vals, row_keys=rk, col_keys=ck, zero=a.zero,
        presorted=True, filtered=True)


def oplus_fold(
    arrays: Sequence[AssociativeArray],
    op_pair: OpPair,
) -> AssociativeArray:
    """Balanced pairwise ``⊕``-fold of in-memory arrays over union keys.

    The raw merge tree without the safety gate: callers that certified
    the op-pair once up front (:func:`check_merge_safety` — the plan
    front-end, :class:`~repro.serve.service.AdjacencyService` epoch
    publication) fold deltas through this without re-running the
    criteria search per merge.
    """
    if not arrays:
        raise ShardError("no arrays to merge")
    level = list(arrays)
    while len(level) > 1:
        level = [oplus_union(level[i], level[i + 1], op_pair)
                 if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    return level[0]


def merge_adjacency(
    results: Sequence[AssociativeArray],
    op_pair: OpPair,
    *,
    unsafe_ok: bool = False,
) -> AssociativeArray:
    """Pairwise-merge in-memory shard results into one adjacency array."""
    check_merge_safety(op_pair, unsafe_ok=unsafe_ok)
    if not results:
        raise ShardError("no shard results to merge")
    return oplus_fold(results, op_pair)


def merge_spilled(
    paths: Sequence[Union[str, Path]],
    op_pair: OpPair,
    *,
    workdir: Optional[Union[str, Path]] = None,
    unsafe_ok: bool = False,
    cleanup: bool = True,
    keys: Optional[Tuple[KeySet, KeySet]] = None,
) -> AssociativeArray:
    """Pairwise-merge spilled shard results from disk.

    Intermediate merge levels are themselves spilled to ``workdir``
    (default: the first input's directory); at most two operands are
    resident at once.  ``cleanup`` deletes inputs and intermediates as
    they are consumed.  ``keys`` — the ``(row, column)`` key sets of a
    coded shard set's spills (see :func:`save_spill`) — switches the
    intermediates to the same pickle-free format; without it the
    inputs and intermediates are pickles.
    """
    check_merge_safety(op_pair, unsafe_ok=unsafe_ok)
    if not paths:
        raise ShardError("no shard results to merge")
    spilled = get_registry().counter(
        "shard_spill_bytes_total", "Bytes spilled by shard builds")
    level: List[Path] = [Path(p) for p in paths]
    root = Path(workdir) if workdir is not None else level[0].parent
    root.mkdir(parents=True, exist_ok=True)

    def load(path: Path) -> AssociativeArray:
        return _load(path, keys, op_pair.zero)

    generation = 0
    with span("shard.merge_spilled", inputs=len(level)):
        while len(level) > 1:
            generation += 1
            if len(level) == 2:
                # Final merge: its product is the answer — return it
                # without the spill/reload round-trip (it is the largest
                # array of the whole run).
                merged = oplus_union(load(level[0]), load(level[1]),
                                     op_pair)
                if cleanup:
                    level[0].unlink(missing_ok=True)
                    level[1].unlink(missing_ok=True)
                return merged
            nxt: List[Path] = []
            for i in range(0, len(level), 2):
                if i + 1 >= len(level):
                    nxt.append(level[i])  # odd one out rides up a level
                    continue
                merged = oplus_union(load(level[i]), load(level[i + 1]),
                                     op_pair)
                stem = root / f"merge_{generation:03d}_{i // 2:05d}"
                if keys is not None:
                    out = save_spill(merged, stem)
                else:
                    out = stem.with_suffix(".pkl")
                    with out.open("wb") as fh:
                        pickle.dump(merged, fh,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                nbytes = out.stat().st_size
                spilled.inc(nbytes)
                emit_event("shard_spill", stage="merge",
                           level=generation, bytes=nbytes,
                           path=str(out))
                if cleanup:
                    level[i].unlink(missing_ok=True)
                    level[i + 1].unlink(missing_ok=True)
                nxt.append(out)
            level = nxt
        result = load(level[0])
        if cleanup:
            level[0].unlink(missing_ok=True)
        return result


def save_spill(
    adj: AssociativeArray,
    stem: Path,
    row_lookup: Optional[np.ndarray] = None,
    col_lookup: Optional[np.ndarray] = None,
) -> Path:
    """Spill ``adj`` without pickle; returns the file written.

    Coordinates are stored as key *positions*, mapped through the
    optional monotone ``row_lookup``/``col_lookup`` arrays (a shard's
    local ranks → the set's global ranks).  Numeric storage goes to
    ``stem.npy``: :data:`~repro.shard.manifest.RECORD` entries in
    (row, col) order.  Dict storage — small results, whose exact Python
    value types (``5`` vs ``5.0``) the output keeps, and every result
    pinned to ``backend="dict"`` — goes to ``stem.tsv`` (``stem.dict.tsv``
    when pinned, so the pin survives the merge) as
    ``row<TAB>col<TAB>value`` lines, which
    :func:`~repro.arrays.io.read_tsv_columns` parses back to the same
    ints and floats.  Both are written through
    :func:`~repro.arrays.io.atomic_write`.
    """
    if adj.backend == "numeric":
        be = adj.numeric_backend()
        records = np.empty(be.nnz, dtype=RECORD)
        records["row"] = be.rows if row_lookup is None else row_lookup[be.rows]
        records["col"] = be.cols if col_lookup is None else col_lookup[be.cols]
        records["val"] = be.vals
        path = stem.with_suffix(".npy")
        save_npy(path, records)
        return path
    rpos = adj.row_keys.position_map()
    cpos = adj.col_keys.position_map()
    rmap = (lambda i: i) if row_lookup is None else row_lookup.item
    cmap = (lambda j: j) if col_lookup is None else col_lookup.item
    lines = []
    for r, c, v in adj.entries():
        if type(v) not in (int, float):
            raise ShardError(
                f"cannot spill value {v!r} ({type(v).__name__}) of a "
                "coded shard result; partition with shard_format='tsv'")
        lines.append(f"{rmap(rpos[r])}\t{cmap(cpos[c])}\t{v}\n")
    path = stem.with_name(stem.name + (".dict.tsv" if adj.pinned
                                       else ".tsv"))
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))
    return path


def _load(path: Path, keys: Optional[Tuple[KeySet, KeySet]],
          zero) -> AssociativeArray:
    """One spill: a pickle, or (with ``keys``) a :func:`save_spill` file."""
    try:
        if path.suffix == ".pkl":
            with path.open("rb") as fh:
                return pickle.load(fh)
        if keys is None:
            raise ShardError(f"{path}: a coded spill needs its key sets")
        rk, ck = keys
        if path.suffix == ".npy":
            try:
                records = np.load(path, allow_pickle=False)
            except ValueError as exc:
                raise ShardError(f"{path}: unreadable spill ({exc})") \
                    from None
            if records.dtype != RECORD or records.ndim != 1:
                raise ShardError(f"{path}: not a spill of coded records")
            rows = np.ascontiguousarray(records["row"])
            cols = np.ascontiguousarray(records["col"])
            check_codes(rows, len(rk), path, "row")
            check_codes(cols, len(ck), path, "column")
            return AssociativeArray._from_numeric(
                rows, cols, np.ascontiguousarray(records["val"]),
                row_keys=rk, col_keys=ck, zero=zero, presorted=True,
                filtered=True)
        rows, cols, vals = read_tsv_columns(path)
        rkeys, ckeys = rk.keys(), ck.keys()
        data = dict(zip(zip(map(rkeys.__getitem__, map(int, rows)),
                            map(ckeys.__getitem__, map(int, cols))), vals))
        pinned = path.name.endswith(".dict.tsv")
        return AssociativeArray._adopt(DictBackend(data, pinned=pinned),
                                       rk, ck, zero)
    except FileNotFoundError:
        raise ShardError(f"missing spilled shard result {path}") from None
