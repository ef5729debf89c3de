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
chunk's lines appended to their shard files in one write per shard.
"""

from __future__ import annotations

import operator
import pickle
import zlib
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.arrays.io import _parse_scalar, iter_tsv_blocks
from repro.shard.manifest import (
    FORMATS,
    ShardError,
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


class ShardAssigner:
    """Stable edge-key → shard-index assignment (one dict entry per key)."""

    def __init__(self, n_shards: int, strategy: str = "round_robin") -> None:
        if n_shards < 1:
            raise ShardError("n_shards must be >= 1")
        if strategy not in STRATEGIES:
            raise ShardError(
                f"unknown partition strategy {strategy!r}; "
                f"use one of {STRATEGIES}")
        self.n_shards = n_shards
        self.strategy = strategy
        self._assigned: Dict[Any, int] = {}
        self._next = 0

    def __len__(self) -> int:
        """Distinct edge keys assigned so far."""
        return len(self._assigned)

    def seen(self, key: Any) -> bool:
        """Whether ``key`` has already been assigned."""
        return key in self._assigned

    def assign(self, key: Any) -> int:
        """The shard index for ``key`` (allocating on first sight)."""
        sid = self._assigned.get(key)
        if sid is None:
            sid = self._allocate([key])[0]
        return sid

    def assign_block(self, keys: Sequence[Any]) -> Tuple[List[int], List[int]]:
        """The shard index of every key in ``keys``, plus the indices
        allocated to keys first seen in this block (in first-seen
        order) — the same assignment as :meth:`assign` key by key."""
        assigned = self._assigned
        sids = list(map(assigned.get, keys))
        if None not in sids:
            return sids, []
        fresh = list(dict.fromkeys(
            compress(keys, map(operator.is_, sids, repeat(None)))))
        fresh_sids = self._allocate(fresh)
        return list(map(assigned.__getitem__, keys)), fresh_sids

    def _allocate(self, fresh: List[Any]) -> List[int]:
        """Assign unseen keys, in order; returns their shard indices."""
        n = self.n_shards
        if self.strategy == "round_robin":
            start = self._next
            sids = [(start + i) % n for i in range(len(fresh))]
            self._next += len(fresh)
        else:  # hash — salted-hash-free, stable across interpreters
            sids = [zlib.crc32(str(k).encode("utf-8")) % n for k in fresh]
        self._assigned.update(zip(fresh, sids))
        return sids


class _EntryWriter:
    """Append ``(key, vertex, value)`` entries to one shard-side file.

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

    def close(self) -> None:
        self._fh.close()


def _ext(fmt: str) -> str:
    return "tsv" if fmt == "tsv" else "pkl"


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
                    outdir / f"{stem}.eout.{_ext(fmt)}", fmt, validate))
                self.ein.append(_EntryWriter(
                    outdir / f"{stem}.ein.{_ext(fmt)}", fmt, validate))
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
        """Close and delete every file this writer created — the
        failure path, so a partition that dies midway leaves no partial
        shard files behind (in a user-owned directory in particular)."""
        self.close()
        for w in self.eout + self.ein:
            w.path.unlink(missing_ok=True)

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
    columns: a few MB) plus the per-key state — the key → shard map
    and the set of keys Ein has shown — never the file.  An edge key may
    repeat (hyperedge rows have several entries).  Values equal to
    ``zero`` are rejected — a zero incidence entry would erase the
    edge (Definition I.4).
    """
    assigner = ShardAssigner(n_shards, strategy)
    # Entries below are just-parsed TSV text; lines whose value text is
    # already canonical are copied verbatim, the rest re-serialized
    # (an identity by construction) — no per-entry round-trip check.
    writers = _ShardSetWriter(Path(outdir), n_shards, shard_format,
                              validate=False)
    in_keys: Set[Any] = set()

    def _route(path: Union[str, Path], side: List[_EntryWriter],
               seen: Optional[Set[Any]]) -> None:
        for block in iter_tsv_blocks(path):
            keys, vals = block.rows, block.vals
            if zero in vals:
                for key, value in zip(keys, vals):
                    if value == zero:
                        raise ShardError(
                            f"{path}: incidence value for edge {key!r} "
                            f"equals the zero {zero!r}")
            sids, fresh_sids = assigner.assign_block(keys)
            for sid in fresh_sids:
                writers.edge_counts[sid] += 1
            if seen is not None:
                seen.update(keys)
            if writers.fmt == "tsv":
                lines = block.lines
                if list(map(str, vals)) != block.texts:
                    # Shard files hold values in their parsed form.
                    lines = [f"{k}\t{v}\t{x}"
                             for k, v, x in zip(keys, block.cols, vals)]
                for sid, part in _group_by_shard(lines, sids, n_shards):
                    side[sid].write_lines(part)
            else:
                for key, vertex, value, sid in zip(keys, block.cols, vals,
                                                   sids):
                    side[sid].write(key, vertex, value)

    try:
        _route(eout_path, writers.eout, None)
        n_out = len(assigner)  # the first n_out assigned keys are Eout's
        _route(ein_path, writers.ein, in_keys)
        # Definition I.4 gives every edge entries on both sides, and
        # batch construction on the same files would raise (the derived
        # row key sets differ).  A one-sided key therefore signals
        # mismatched input files — refuse rather than silently dropping
        # its contribution.
        one_sided = [k for k in islice(assigner._assigned, n_out)
                     if k not in in_keys]
        one_sided += islice(assigner._assigned, n_out, None)
        if one_sided:
            sample = ", ".join(repr(k) for k in sorted(one_sided)[:5])
            raise ShardError(
                f"{len(one_sided)} edge key(s) appear in only one "
                f"incidence file (e.g. {sample}); Eout and Ein must "
                "cover the same edge set K")
    except Exception:
        writers.discard()
        raise
    return _finalize(assigner, writers, op_pair_name)


def _group_by_shard(lines: List[str], sids: List[int],
                    n_shards: int) -> Iterable[Tuple[int, List[str]]]:
    """``(shard, lines)`` for every shard with lines in this block, the
    lines in their input order."""
    if n_shards == 1:
        return [(0, lines)]
    sid_arr = np.array(sids, dtype=np.int64)
    order = np.argsort(sid_arr, kind="stable").tolist()
    ordered = list(map(lines.__getitem__, order))
    bounds = np.cumsum(np.bincount(sid_arr, minlength=n_shards)).tolist()
    out = []
    lo = 0
    for sid, hi in enumerate(bounds):
        if hi > lo:
            out.append((sid, ordered[lo:hi]))
        lo = hi
    return out


def _finalize(assigner: ShardAssigner, writers: _ShardSetWriter,
              op_pair_name: Optional[str]) -> ShardManifest:
    """Close a completed shard set and save its manifest (the shared
    tail of both partition entry points)."""
    writers.close()
    manifest = ShardManifest(
        format=writers.fmt,
        strategy=assigner.strategy,
        n_edges=len(assigner),
        shards=writers.infos(),
        op_pair=op_pair_name,
        root=writers.outdir,
    )
    manifest.save()
    return manifest
