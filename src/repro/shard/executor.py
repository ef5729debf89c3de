"""Construct per-shard adjacency arrays from an on-disk shard set.

Each shard is independent work: load its incidence pair, compute
``Aₛ = (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)`` with the ordinary
:func:`repro.arrays.matmul.multiply` kernels, and spill the result to
disk.  How a shard loads depends on the set's format
(:mod:`repro.shard.manifest`):

* ``"coded"`` shards are fixed-width int64/float64 records, read with
  ``np.fromfile``.  Edge and vertex codes map to their sorted-key
  ranks, so the per-shard arrays are keyed by integer ranks whose order
  is the keys' string order — the ⊕ fold runs over edges in the same
  order as for string keys, yet no key is parsed, hashed or sorted as a
  string.  Results spill in the same coordinates through
  :func:`~repro.shard.merge.save_spill` (``.npy`` records, or
  rank-keyed TSV for dict-backed results: small ones, whose exact
  Python value types must survive, and ``backend="dict"`` ones), so
  every spill shares the set's global vertex key sets.
* ``"tsv"`` shard files are read in bounded chunks of about
  :data:`~repro.arrays.io.TSV_CHUNK_CHARS` characters (1 MiB), straight
  into key/value columns; ``"pickle"`` shards are unpickled.  Their
  results spill as pickles.

Workers mirror :mod:`repro.arrays.parallel`:

* ``executor="serial"`` — in-process loop (the plumbing without
  concurrency);
* ``executor="thread"`` — a thread pool (NumPy kernels release the GIL);
* ``executor="process"`` — a process pool; op-pairs travel *by registry
  name* via :mod:`repro.values.shipping`, exactly as the row-partitioned
  fan-out ships them.

Results are always spilled (never returned through the pool) so peak
memory stays one shard's working set per worker — the point of the
subsystem.  The merge tree (:mod:`repro.shard.merge`) consumes the spill
files pairwise.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import (
    BACKEND_KINDS,
    VECTORIZE_MIN_NNZ,
    NumericBackend,
    usable_numeric_zero,
)
from repro.arrays.io import read_tsv_columns
from repro.arrays.keys import KeyError_, KeySet
from repro.arrays.matmul import multiply
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.shard.manifest import (
    ShardError,
    ShardInfo,
    ShardManifest,
    check_codes,
    read_key_table,
    read_rank_table,
    read_records,
)
from repro.shard.merge import save_spill
from repro.values.semiring import OpPair, SemiringError
from repro.values.shipping import registered_name, resolve_registered_pair

PairOrName = Union[OpPair, str]

__all__ = ["ShardProduct", "EXECUTORS", "load_shard", "execute_shards",
           "vertex_keys"]

EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ShardProduct:
    """One shard's spilled adjacency result.

    ``seconds`` (worker build wall time) and ``bytes`` (spill file
    size) default to zero so pre-observability constructions keep
    working.
    """

    index: int
    path: Path
    nnz: int
    seconds: float = 0.0
    bytes: int = 0


def _python_values(vals: np.ndarray, value_type: str) -> list:
    """Decoded float64 values as the Python type their text parsed to."""
    if value_type == "int":
        return vals.astype(np.int64).tolist()
    return vals.tolist()


def _read_columns(manifest: ShardManifest, path: Path, side: str,
                  expected: int) -> Tuple[list, list, list]:
    """One entry file as ``(keys, vertices, values)`` columns."""
    if manifest.format == "tsv":
        return read_tsv_columns(path)
    if manifest.format == "coded":
        edge_ranks = _rank_table(manifest, "edge", manifest.n_edges)
        vertex_ranks = _rank_table(manifest, side)
        edges, vertices, vals = _coded_side(path, expected, edge_ranks,
                                            vertex_ranks)
        return (_decode(manifest, "edge", edges, len(edge_ranks)),
                _decode(manifest, side, vertices, len(vertex_ranks)),
                _python_values(vals, manifest.value_types[side == "in"]))
    entries = []
    with path.open("rb") as fh:
        while True:
            try:
                entries.append(pickle.load(fh))
            except EOFError:
                break
    if not entries:
        return [], [], []
    keys, vertices, values = map(list, zip(*entries))
    return keys, vertices, values


def _rank_table(manifest: ShardManifest, name: str,
                size: Optional[int] = None) -> np.ndarray:
    """A coded set's code → rank table (``"edge"``, ``"out"`` or
    ``"in"``), checked to hold ``size`` codes when given."""
    path = manifest.table_path(name + "_rank")
    ranks = read_rank_table(path)
    if size is not None and len(ranks) != size:
        raise ShardError(f"{path}: {len(ranks)} codes, expected {size}")
    return ranks


def _decode(manifest: ShardManifest, name: str, ranks: np.ndarray,
            size: int) -> list:
    """Ranks as the string keys of table ``name`` (``size`` keys)."""
    path = manifest.table_path(name)
    keys = read_key_table(path)
    if len(keys) != size:
        raise ShardError(f"{path}: {len(keys)} keys, expected {size}")
    return list(map(keys.__getitem__, ranks.tolist()))


def _coded_side(path: Path, expected: int, edge_ranks: np.ndarray,
                vertex_ranks: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A coded shard file of ``expected`` records as ``(edge ranks,
    vertex ranks, values)``, every code checked against its table."""
    records = read_records(path, expected)
    check_codes(records["row"], len(edge_ranks), path, "edge")
    check_codes(records["col"], len(vertex_ranks), path, "vertex")
    return (edge_ranks[records["row"]], vertex_ranks[records["col"]],
            records["val"])


def load_shard(
    manifest: ShardManifest,
    info: ShardInfo,
    *,
    zero: Any = 0,
    backend: str = "auto",
) -> Tuple[AssociativeArray, AssociativeArray]:
    """Load one shard's ``(Eout|Kₛ, Ein|Kₛ)`` incidence pair.

    Row keys are the union of edge keys observed on either side (both
    arrays share them, as Definition I.4 requires); column keys are the
    observed vertices of each side; ``zero`` should be the op-pair's.
    ``backend`` picks the arrays' storage backend
    (:mod:`repro.arrays.backend`).  Arrays are built column-wise
    (:meth:`AssociativeArray.from_columns`), string-keyed for every
    format (coded shards decode through their key tables); a repeated
    ``(edge, vertex)`` coordinate raises.
    """
    eout_path, ein_path = manifest.shard_paths(info)
    out_keys, out_vertices, out_values = _read_columns(
        manifest, eout_path, "out", info.n_out_entries)
    in_keys, in_vertices, in_values = _read_columns(
        manifest, ein_path, "in", info.n_in_entries)
    row_keys = KeySet({*out_keys, *in_keys})
    eout = AssociativeArray.from_columns(
        out_keys, out_vertices, out_values, row_keys=row_keys, zero=zero,
        backend=backend)
    ein = AssociativeArray.from_columns(
        in_keys, in_vertices, in_values, row_keys=row_keys, zero=zero,
        backend=backend)
    return eout, ein


def vertex_keys(manifest: ShardManifest) -> Optional[Tuple[KeySet, KeySet]]:
    """A coded set's global ``(out, in)`` vertex key sets — the key
    sets of every coded spill, indexed by rank — or ``None`` for the
    other formats."""
    if manifest.format != "coded":
        return None
    return tuple(KeySet(read_key_table(manifest.table_path(side)),
                        presorted=True) for side in ("out", "in"))


def _compact(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(kept, local)``: the distinct codes in ascending order, and
    each code's position among them (a monotone relabelling)."""
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    kept = np.flatnonzero(present)
    position = np.cumsum(present, dtype=np.int64) - 1
    return kept, position[codes]


def _incidence(manifest: ShardManifest, path: Path, side: str,
               rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               shape: Tuple[int, int], zero: Any,
               backend: str) -> AssociativeArray:
    """One coded shard side (``path``) as an array keyed by local ranks.

    Storage follows :meth:`AssociativeArray.from_columns` exactly:
    columnar when ``backend="numeric"`` or, under ``"auto"``, for at
    least :data:`VECTORIZE_MIN_NNZ` entries; otherwise dict storage of
    the values' decoded Python types.  A repeated coordinate raises as
    ``from_columns`` does, naming its string keys.
    """
    codes = rows * np.int64(shape[1]) + cols
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    dup = np.flatnonzero(codes[1:] == codes[:-1])
    if dup.size:
        keys, vertices, _ = _read_columns(manifest, path, side, len(vals))
        i = int(order[dup[0] + 1])
        raise KeyError_(f"duplicate coordinate {(keys[i], vertices[i])!r}; "
                        "pass combine= to merge values")
    rk = KeySet(range(shape[0]), presorted=True)
    ck = KeySet(range(shape[1]), presorted=True)
    if usable_numeric_zero(zero) and (
            backend == "numeric"
            or (backend == "auto" and len(vals) >= VECTORIZE_MIN_NNZ)):
        rows, cols, vals = rows[order], cols[order], vals[order]
        keep = vals != float(zero)  # a set partitioned for another zero
        if not bool(keep.all()):
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        be = NumericBackend(rows, cols, vals, shape, presorted=True)
        return AssociativeArray._adopt(be, rk, ck, zero)
    value_type = manifest.value_types[side == "in"]
    return AssociativeArray.from_columns(
        rows.tolist(), cols.tolist(), _python_values(vals, value_type),
        row_keys=rk, col_keys=ck, zero=zero, backend=backend)


def _coded_product(manifest: ShardManifest, info: ShardInfo, pair: OpPair,
                   mode: str, kernel: str, backend: str,
                   out_stem: str) -> Tuple[str, int]:
    """One coded shard's product, spilled; returns ``(path, nnz)``."""
    eout_path, ein_path = manifest.shard_paths(info)
    edge_ranks = _rank_table(manifest, "edge", manifest.n_edges)
    out_ranks = _rank_table(manifest, "out")
    in_ranks = _rank_table(manifest, "in")
    out_edges, out_vertices, out_vals = _coded_side(
        eout_path, info.n_out_entries, edge_ranks, out_ranks)
    in_edges, in_vertices, in_vals = _coded_side(
        ein_path, info.n_in_entries, edge_ranks, in_ranks)
    edges, edge_pos = _compact(np.concatenate((out_edges, in_edges)),
                               manifest.n_edges)
    out_vs, out_pos = _compact(out_vertices, len(out_ranks))
    in_vs, in_pos = _compact(in_vertices, len(in_ranks))
    n_out = len(out_vals)
    eout = _incidence(manifest, eout_path, "out", edge_pos[:n_out],
                      out_pos, out_vals, (len(edges), len(out_vs)),
                      pair.zero, backend)
    ein = _incidence(manifest, ein_path, "in", edge_pos[n_out:], in_pos,
                     in_vals, (len(edges), len(in_vs)), pair.zero, backend)
    adj = multiply(eout.transpose(), ein, pair, mode=mode, kernel=kernel)
    if backend != "auto":
        adj = adj.with_backend(backend)
    return str(save_spill(adj, Path(out_stem), out_vs, in_vs)), adj.nnz


def _shard_task(
    manifest: ShardManifest,
    info: ShardInfo,
    pair: PairOrName,
    mode: str,
    kernel: str,
    backend: str,
    out_path: str,
) -> Tuple[int, str, int, float, int]:
    """Worker body (module-level so process pools can pickle it).

    ``pair`` is a registry *name* when crossing a process boundary
    (op-pairs may not pickle) and the in-memory object otherwise.
    ``out_path`` is the spill path without its suffix, which the
    format decides.  Returns ``(index, path, nnz, build_seconds,
    spilled_bytes)`` — the timing travels back as plain data because
    process workers cannot share the coordinator's metrics registry.
    """
    started = time.perf_counter()
    if isinstance(pair, str):
        pair = resolve_registered_pair(pair)
    if manifest.format == "coded":
        out_path, nnz = _coded_product(manifest, info, pair, mode, kernel,
                                       backend, out_path)
    else:
        eout, ein = load_shard(manifest, info, zero=pair.zero,
                               backend=backend)
        adj = multiply(eout.transpose(), ein, pair, mode=mode,
                       kernel=kernel)
        if backend != "auto":
            # Spilled shard results carry the requested storage backend,
            # so the ⊕-merge tree sees (and keeps) the chosen
            # representation.
            adj = adj.with_backend(backend)
        out_path += ".pkl"
        with open(out_path, "wb") as fh:
            pickle.dump(adj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        nnz = adj.nnz
    return (info.index, out_path, nnz,
            time.perf_counter() - started, os.path.getsize(out_path))


def execute_shards(
    manifest: ShardManifest,
    op_pair: OpPair,
    *,
    executor: str = "thread",
    n_workers: int = 4,
    mode: str = "sparse",
    kernel: str = "auto",
    backend: str = "auto",
    workdir: Optional[Union[str, Path]] = None,
) -> List[ShardProduct]:
    """Build every shard's adjacency array, spilled to ``workdir``.

    ``workdir`` defaults to the manifest's own directory.  Returns the
    spill records in shard-index order.  Only ``executor="process"``
    requires a *registered* op-pair (it ships the pair by name);
    serial/thread execution stays in-process and accepts any pair.
    ``backend`` pins the per-shard array storage (``"dict"`` forces the
    generic paths end to end; ``"numeric"`` compiles the columnar form
    at ingest).
    """
    if executor not in EXECUTORS:
        raise ShardError(f"unknown executor {executor!r}; use {EXECUTORS}")
    if n_workers < 1:
        raise ShardError("n_workers must be >= 1")
    if backend not in BACKEND_KINDS:
        raise ShardError(
            f"unknown backend {backend!r}; use one of {BACKEND_KINDS}")
    shipped: PairOrName = op_pair
    if executor == "process":
        try:
            shipped = registered_name(op_pair)
        except SemiringError as exc:
            raise ShardError(str(exc)) from None
    root = Path(workdir) if workdir is not None else manifest.root
    if root is None:
        raise ShardError("no workdir and the manifest has no root directory")
    root.mkdir(parents=True, exist_ok=True)
    if manifest.format == "coded":
        for path in manifest.table_paths():
            if not path.exists():
                raise ShardError(f"missing key table {path}")
    tasks = [(info, str(root / f"adj_{info.index:05d}"))
             for info in manifest.shards]
    registry = get_registry()
    queue_depth = registry.gauge(
        "shard_executor_queue_depth",
        "Shard build tasks submitted but not yet finished")
    with span("shard.execute", shards=len(tasks), executor=executor):
        if executor == "serial" or n_workers == 1 or len(tasks) <= 1:
            raw = []
            for info, out in tasks:
                queue_depth.inc()
                try:
                    raw.append(_shard_task(manifest, info, op_pair, mode,
                                           kernel, backend, out))
                finally:
                    queue_depth.dec()
        else:
            pool_cls = ThreadPoolExecutor if executor == "thread" \
                else ProcessPoolExecutor
            with pool_cls(max_workers=min(n_workers, len(tasks))) as pool:
                futures = []
                for info, out in tasks:
                    queue_depth.inc()
                    fut = pool.submit(
                        _shard_task, manifest, info,
                        shipped if executor == "process" else op_pair,
                        mode, kernel, backend, out)
                    fut.add_done_callback(lambda _f: queue_depth.dec())
                    futures.append(fut)
                raw = [f.result() for f in futures]
    build_seconds = registry.histogram(
        "shard_build_seconds", "Per-shard adjacency build wall time")
    spilled = registry.counter(
        "shard_spill_bytes_total", "Bytes spilled by shard builds")
    for _i, _p, _nnz, seconds, nbytes in raw:
        build_seconds.observe(seconds)
        spilled.inc(nbytes)
    emit_event("shard_spill", stage="build", shards=len(raw),
               bytes=sum(nbytes for *_rest, nbytes in raw),
               executor=executor)
    return [ShardProduct(index=i, path=Path(p), nnz=nnz, seconds=secs,
                         bytes=nbytes)
            for i, p, nnz, secs, nbytes in sorted(raw)]
