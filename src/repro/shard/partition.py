"""Partition an edge stream into on-disk incidence shards.

Splitting happens along the **edge dimension** — the contraction axis of
``A = Eoutᵀ ⊕.⊗ Ein`` — so every incidence entry of one edge key lands
in the same shard and per-shard products can be ⊕-merged exactly (for
associative/commutative ``⊕``; :mod:`repro.shard.merge` enforces this).

Both strategies are single-pass and memory-bounded by the number of
*distinct edge keys* (one dict entry each), never by the number of
incidence entries:

``"round_robin"``
    Keys are assigned ``0, 1, 2, …`` in first-seen order — balanced
    shard sizes, deterministic given the input order.
``"hash"``
    Keys are assigned by a salted-hash-free CRC32 of their string form —
    stable across runs *and* input orders, so re-partitioning the same
    edge set always produces the same assignment.

Entry files are written incrementally, so a shard set can be built
from a stream far larger than RAM: edge records append per entry, and a
TSV incidence pair is read in bounded chunks of about
:data:`~repro.arrays.io.TSV_CHUNK_CHARS` characters (1 MiB), each
chunk's entries appended to their shard files in one write per shard —
as text lines, or, in the ``"coded"`` format, as binary records whose
keys are int64 first-sight codes (:class:`KeyCoder`; layout in
:mod:`repro.shard.manifest`).  Coded files are written beside their
names and moved into place, fsynced, once the set is complete.
"""

from __future__ import annotations

import operator
import pickle
import zlib
from itertools import compress, repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrays.backend import numeric_values, usable_numeric_zero
from repro.arrays.io import _parse_scalar, atomic_write, iter_tsv_blocks
from repro.shard.manifest import (
    FORMATS,
    RECORD,
    TABLES,
    ShardError,
    save_npy,
    ShardInfo,
    ShardManifest,
)
from repro.shard.source import EdgeRecord

__all__ = [
    "ShardAssigner",
    "partition_edge_records",
    "partition_tsv_pair",
]

STRATEGIES = ("round_robin", "hash")


class KeyCoder:
    """First-sight int64 codes for keys (one dict entry per distinct
    key): the ``n``-th distinct key seen gets code ``n``."""

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}

    def __len__(self) -> int:
        """Distinct keys coded so far."""
        return len(self._codes)

    def encode(self, keys: Sequence[Any]) -> np.ndarray:
        """The code of every key in ``keys``, allocating codes to keys
        first seen in this block in first-seen order."""
        codes = self._codes
        got = list(map(codes.get, keys))
        if None in got:
            fresh = list(dict.fromkeys(
                compress(keys, map(operator.is_, got, repeat(None)))))
            base = len(codes)
            codes.update(zip(fresh, range(base, base + len(fresh))))
            self._allocated(fresh)
            if len(fresh) == len(keys):  # all new and distinct
                return np.arange(base, base + len(fresh), dtype=np.int64)
            got = map(codes.__getitem__, keys)
        return np.fromiter(got, dtype=np.int64, count=len(keys))

    def _allocated(self, fresh: List[Any]) -> None:
        """Hook: ``fresh`` keys just received the next codes."""

    def keys(self) -> List[Any]:
        """Every key, in code order."""
        return list(self._codes)

    def ranked(self) -> Tuple[List[Any], np.ndarray]:
        """Every key in sorted order, and the rank of every code."""
        codes = self._codes
        keys = sorted(codes)
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[np.fromiter(map(codes.__getitem__, keys), dtype=np.int64,
                          count=len(keys))] = np.arange(len(keys))
        return keys, ranks


class ShardAssigner(KeyCoder):
    """Stable edge-key → shard-index assignment (one dict entry per key).

    Each key's shard derives from its first-sight code: ``code %
    n_shards`` for ``"round_robin"``, a CRC32 of the key's text for
    ``"hash"``.
    """

    def __init__(self, n_shards: int, strategy: str = "round_robin") -> None:
        if n_shards < 1:
            raise ShardError("n_shards must be >= 1")
        if strategy not in STRATEGIES:
            raise ShardError(
                f"unknown partition strategy {strategy!r}; "
                f"use one of {STRATEGIES}")
        super().__init__()
        self.n_shards = n_shards
        self.strategy = strategy
        # "hash": the shard of each code, in a buffer grown by doubling
        # (its first len(self) slots are set).
        self._hashed = np.empty(0, dtype=np.int64)

    def seen(self, key: Any) -> bool:
        """Whether ``key`` has already been assigned."""
        return key in self._codes

    def assign(self, key: Any) -> int:
        """The shard index for ``key`` (allocating on first sight)."""
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._codes)
            self._allocated([key])
        if self.strategy == "round_robin":
            return code % self.n_shards
        return int(self._hashed[code])

    def shards_of(self, codes: np.ndarray) -> np.ndarray:
        """The shard index of every code."""
        if self.strategy == "round_robin":
            return codes % self.n_shards
        return self._hashed[codes]

    def _allocated(self, fresh: List[Any]) -> None:
        if self.strategy != "hash":
            return
        end = len(self._codes)
        start = end - len(fresh)
        if end > len(self._hashed):
            grown = np.empty(max(end, 2 * len(self._hashed)), dtype=np.int64)
            grown[:start] = self._hashed[:start]
            self._hashed = grown
        n = self.n_shards  # salted-hash-free, stable across runs
        self._hashed[start:end] = [zlib.crc32(str(k).encode("utf-8")) % n
                                   for k in fresh]


class _EntryWriter:
    """Append ``(key, vertex, value)`` entries to one shard-side file.

    A ``"coded"`` file is written through
    :func:`~repro.arrays.io.atomic_write`: it appears under its name,
    fsynced, only on :meth:`close`.  :meth:`discard` leaves nothing
    behind in every format.

    ``validate=False`` skips the TSV round-trip check — correct only
    when every entry was itself parsed from TSV text (the streaming
    file-pair ingest), where re-serializing is the identity by
    construction; re-validating there would double the parse work on
    the subsystem's hottest path and spuriously refuse NaN (which
    round-trips fine but fails an equality check against itself).
    """

    def __init__(self, path: Path, fmt: str, validate: bool = True) -> None:
        self.path = path
        self.fmt = fmt
        self.validate = validate
        self.count = 0
        self._open = True
        if fmt == "coded":
            self._file = atomic_write(path, binary=True)
            self._fh = self._file.__enter__()
            return
        self._file = None
        mode = "w" if fmt == "tsv" else "wb"
        kwargs = {"encoding": "utf-8", "newline": ""} if fmt == "tsv" else {}
        self._fh = path.open(mode, **kwargs)

    def write(self, key: Any, vertex: Any, value: Any) -> None:
        if self.fmt == "tsv":
            if self.validate:
                # TSV is text: string keys come back as strings, and
                # only values whose text form parses back to the same
                # object are representable.  Anything else (int keys,
                # booleans, "3" as a *string*) would silently diverge
                # from batch construction, so refuse loudly.
                parsed = _parse_scalar(str(value))
                if (not isinstance(key, str)
                        or not isinstance(vertex, str)
                        or type(parsed) is not type(value)
                        or parsed != value):
                    raise ShardError(
                        f"entry ({key!r}, {vertex!r}, {value!r}) does "
                        "not survive the TSV round-trip; use "
                        "shard_format='pickle'")
            line = f"{key}\t{vertex}\t{value}"
            if line.count("\t") != 2 or "\n" in line or "\r" in line:
                raise ShardError(
                    f"entry ({key!r}, {vertex!r}, {value!r}) does not "
                    "survive the TSV round-trip; use shard_format='pickle'")
            self._fh.write(line + "\n")
        else:
            pickle.dump((key, vertex, value), self._fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        self.count += 1

    def write_lines(self, lines: Sequence[str]) -> None:
        """Append already-valid TSV lines (no line ends) in one write."""
        self._fh.write("\n".join(lines) + "\n")
        self.count += len(lines)

    def write_records(self, records: np.ndarray) -> None:
        """Append coded :data:`~repro.shard.manifest.RECORD` entries."""
        self._fh.write(records.tobytes())
        self.count += len(records)

    def close(self) -> None:
        """Finish the file (a coded one appears under its name now)."""
        if self._open:
            self._open = False
            if self._file is None:
                self._fh.close()
            else:
                self._file.__exit__(None, None, None)

    def discard(self) -> None:
        """Close and remove the file, finished or not."""
        if self._open and self._file is not None:
            self._open = False
            exc = ShardError("shard file discarded")
            self._file.__exit__(ShardError, exc, None)
            return
        self.close()
        self.path.unlink(missing_ok=True)


_EXT = {"tsv": "tsv", "pickle": "pkl", "coded": "bin"}


class _ShardSetWriter:
    """All open entry files of a shard set, plus per-shard edge counts."""

    def __init__(self, outdir: Path, n_shards: int, fmt: str,
                 validate: bool = True) -> None:
        if fmt not in FORMATS:
            raise ShardError(f"unknown shard format {fmt!r}; use {FORMATS}")
        outdir.mkdir(parents=True, exist_ok=True)
        self.outdir = outdir
        self.fmt = fmt
        self.eout: List[_EntryWriter] = []
        self.ein: List[_EntryWriter] = []
        self.edge_counts = [0] * n_shards
        try:
            for i in range(n_shards):
                stem = f"shard_{i:05d}"
                self.eout.append(_EntryWriter(
                    outdir / f"{stem}.eout.{_EXT[fmt]}", fmt, validate))
                self.ein.append(_EntryWriter(
                    outdir / f"{stem}.ein.{_EXT[fmt]}", fmt, validate))
        except Exception:
            # Opening can die midway (e.g. fd exhaustion at large
            # n_shards); discard what was already created so the outdir
            # is not littered with empty shard files and open handles.
            self.discard()
            raise

    def close(self) -> None:
        for w in self.eout + self.ein:
            w.close()

    def discard(self) -> None:
        """Delete every file this writer created — the failure path, so
        a partition that dies midway leaves no partial shard files
        behind (in a user-owned directory in particular)."""
        for w in self.eout + self.ein:
            w.discard()

    def infos(self) -> Tuple[ShardInfo, ...]:
        return tuple(
            ShardInfo(
                index=i,
                eout_path=self.eout[i].path.name,
                ein_path=self.ein[i].path.name,
                n_edges=self.edge_counts[i],
                n_out_entries=self.eout[i].count,
                n_in_entries=self.ein[i].count,
            )
            for i in range(len(self.eout)))


def partition_edge_records(
    records: Iterable[EdgeRecord],
    n_shards: int,
    outdir: Union[str, Path],
    *,
    shard_format: str = "tsv",
    strategy: str = "round_robin",
    op_pair_name: Optional[str] = None,
    allow_rekeyed: bool = False,
) -> ShardManifest:
    """Write a stream of edge records into ``n_shards`` on-disk shards.

    Each record's entries (both sides) go to the shard its key is
    assigned to.  Re-seen keys raise unless ``allow_rekeyed`` (a stream
    of well-formed records presents each edge once; repeated keys almost
    always indicate a bug upstream).  Returns the saved manifest.
    """
    if shard_format == "coded":
        raise ShardError("the 'coded' format holds TSV incidence pairs "
                         "only; use 'tsv' or 'pickle'")
    assigner = ShardAssigner(n_shards, strategy)
    writers = _ShardSetWriter(Path(outdir), n_shards, shard_format)
    try:
        for rec in records:
            if assigner.seen(rec.key):
                if not allow_rekeyed:
                    raise ShardError(f"duplicate edge key {rec.key!r}")
                sid = assigner.assign(rec.key)
            else:
                sid = assigner.assign(rec.key)
                writers.edge_counts[sid] += 1
            for vertex, value in rec.out_entries:
                writers.eout[sid].write(rec.key, vertex, value)
            for vertex, value in rec.in_entries:
                writers.ein[sid].write(rec.key, vertex, value)
    except Exception:
        writers.discard()
        raise
    writers.close()
    return _finalize(assigner, writers, op_pair_name)


def partition_tsv_pair(
    eout_path: Union[str, Path],
    ein_path: Union[str, Path],
    n_shards: int,
    outdir: Union[str, Path],
    *,
    shard_format: str = "tsv",
    strategy: str = "round_robin",
    zero: Any = 0,
    op_pair_name: Optional[str] = None,
) -> ShardManifest:
    """Shard a TSV incidence pair, reading it in bounded chunks.

    Neither file is ever materialized: it is read in blocks of about
    :data:`~repro.arrays.io.TSV_CHUNK_CHARS` characters (1 MiB) by
    :func:`~repro.arrays.io.iter_tsv_blocks`, and each block's
    ``edge<TAB>vertex<TAB>value`` lines go to their shard files in one
    write per shard.  Memory is one block (its text, lines and field
    columns: a few MB) plus the per-key state — the key → code maps
    and the codes Ein has shown — never the file.  An edge key may
    repeat (hyperedge rows have several entries).  Values equal to
    ``zero`` are rejected — a zero incidence entry would erase the
    edge (Definition I.4).

    ``shard_format="coded"`` writes binary records and key tables (see
    :mod:`repro.shard.manifest`).  When a value is not a plain number
    (:func:`~repro.arrays.backend.numeric_values` refuses it), a side
    mixes int and float texts, or ``zero`` is not a plain number, the
    partial coded set is discarded and the pair is partitioned again
    in the ``"tsv"`` format — the same numeric-or-fallback rule as
    :meth:`~repro.arrays.associative.AssociativeArray.from_columns`.
    """
    if shard_format == "coded":
        if usable_numeric_zero(zero):
            try:
                return _partition_tsv_pair(
                    eout_path, ein_path, n_shards, outdir, "coded",
                    strategy, zero, op_pair_name)
            except _NotCodable:
                pass  # the coded files are already discarded
        shard_format = "tsv"
    return _partition_tsv_pair(eout_path, ein_path, n_shards, outdir,
                               shard_format, strategy, zero, op_pair_name)


class _NotCodable(Exception):
    """A TSV pair's values do not fit the coded format."""


def _partition_tsv_pair(eout_path, ein_path, n_shards, outdir, fmt,
                        strategy, zero, op_pair_name) -> ShardManifest:
    assigner = ShardAssigner(n_shards, strategy)
    # Entries below are just-parsed TSV text; lines whose value text is
    # already canonical are copied verbatim, the rest re-serialized
    # (an identity by construction) — no per-entry round-trip check.
    writers = _ShardSetWriter(Path(outdir), n_shards, fmt, validate=False)
    coded = fmt == "coded"
    vertices = (KeyCoder(), KeyCoder())
    value_types: List[type] = []

    def _route(path: Union[str, Path], side: List[_EntryWriter],
               vertex_coder: KeyCoder, seen: Optional[np.ndarray]) -> None:
        types: set = set()
        for block in iter_tsv_blocks(path):
            _route_block(path, block, side, vertex_coder, seen, types)
            # Free this block before the reader builds the next one, so
            # the partition holds one block's lines and columns, not two.
            del block
        value_types.append(next(iter(types), float))

    def _route_block(path: Union[str, Path], block, side: List[_EntryWriter],
                     vertex_coder: KeyCoder, seen: Optional[np.ndarray],
                     types: set) -> None:
        keys, vals = block.rows, block.vals
        if zero in vals:
            for key, value in zip(keys, vals):
                if value == zero:
                    raise ShardError(
                        f"{path}: incidence value for edge {key!r} "
                        f"equals the zero {zero!r}")
        if coded:
            types.update(map(type, vals))
            numeric = numeric_values(vals) if len(types) == 1 else None
            if numeric is None:
                raise _NotCodable
        before = len(assigner)
        codes = assigner.encode(keys)
        fresh = assigner.shards_of(
            np.arange(before, len(assigner), dtype=np.int64))
        for sid in fresh.tolist():
            writers.edge_counts[sid] += 1
        sids = assigner.shards_of(codes)
        if seen is not None:
            seen[codes[codes < len(seen)]] = True
        if coded:
            records = np.empty(len(keys), dtype=RECORD)
            records["row"] = codes
            records["col"] = vertex_coder.encode(block.cols)
            records["val"] = numeric
            for sid, part in _group_by_shard(records, sids, n_shards):
                side[sid].write_records(part)
            return
        lines = block.lines
        if fmt == "tsv":
            if list(map(str, vals)) != block.texts:
                # Shard files hold values in their parsed form.
                lines = [f"{k}\t{v}\t{x}"
                         for k, v, x in zip(keys, block.cols, vals)]
            for sid, part in _group_by_shard(lines, sids, n_shards):
                side[sid].write_lines(part)
        else:
            for key, vertex, value, sid in zip(keys, block.cols, vals,
                                               sids.tolist()):
                side[sid].write(key, vertex, value)

    try:
        _route(eout_path, writers.eout, vertices[0], None)
        n_out = len(assigner)  # the first n_out codes are Eout's keys
        in_ein = np.zeros(n_out, dtype=bool)  # Eout's edges Ein has shown
        _route(ein_path, writers.ein, vertices[1], in_ein)
        # Definition I.4 gives every edge entries on both sides, and
        # batch construction on the same files would raise (the derived
        # row key sets differ).  A one-sided key therefore signals
        # mismatched input files — refuse rather than silently dropping
        # its contribution.
        one_sided = np.flatnonzero(~in_ein).tolist()
        one_sided += range(n_out, len(assigner))
        if one_sided:
            keys = assigner.keys()
            sample = ", ".join(repr(k) for k in sorted(
                keys[c] for c in one_sided)[:5])
            raise ShardError(
                f"{len(one_sided)} edge key(s) appear in only one "
                f"incidence file (e.g. {sample}); Eout and Ein must "
                "cover the same edge set K")
        writers.close()
        if coded:
            _write_tables(writers.outdir, assigner, vertices)
    except BaseException:
        writers.discard()
        if coded:
            for name in TABLES.values():
                (writers.outdir / name).unlink(missing_ok=True)
        raise
    return _finalize(assigner, writers, op_pair_name,
                     tuple(t.__name__ for t in value_types) if coded
                     else None)


def _write_tables(outdir: Path, edges: KeyCoder,
                  vertices: Tuple[KeyCoder, KeyCoder]) -> None:
    """A coded set's key tables: the edge keys and each side's vertex
    keys, sorted, each with its code → rank map beside it."""
    for name, coder in zip(("edge", "out", "in"), (edges, *vertices)):
        keys, ranks = coder.ranked()
        _write_keys(outdir / TABLES[name], keys)
        save_npy(outdir / TABLES[name + "_rank"], ranks)


def _write_keys(path: Path, keys: List[str]) -> None:
    """One key per line (keys hold no newline: they are TSV fields)."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        fh.write("\n".join(keys) + "\n" if keys else "")


def _group_by_shard(items, sids: np.ndarray,
                    n_shards: int) -> Iterable[Tuple[int, Any]]:
    """``(shard, items)`` for every shard with items in this block, the
    items (a list of lines or an array of records) in input order."""
    if n_shards == 1:
        return [(0, items)]
    order = np.argsort(sids, kind="stable")
    if isinstance(items, np.ndarray):
        ordered = items[order]
    else:
        ordered = list(map(items.__getitem__, order.tolist()))
    bounds = np.cumsum(np.bincount(sids, minlength=n_shards)).tolist()
    out = []
    lo = 0
    for sid, hi in enumerate(bounds):
        if hi > lo:
            out.append((sid, ordered[lo:hi]))
        lo = hi
    return out


def _finalize(assigner: ShardAssigner, writers: _ShardSetWriter,
              op_pair_name: Optional[str],
              value_types: Optional[Tuple[str, str]] = None
              ) -> ShardManifest:
    """Save the manifest of a closed shard set (the shared tail of both
    partition entry points)."""
    manifest = ShardManifest(
        format=writers.fmt,
        strategy=assigner.strategy,
        n_edges=len(assigner),
        shards=writers.infos(),
        op_pair=op_pair_name,
        root=writers.outdir,
        value_types=value_types,
    )
    manifest.save()
    return manifest
