"""``ShardedAdjacencyPlan``: the plan → execute → result front-end.

One object owns the whole out-of-core construction:

>>> from repro.shard import ShardedAdjacencyPlan
>>> from repro.values.semiring import get_op_pair
>>> plan = ShardedAdjacencyPlan(get_op_pair("plus_times"), n_shards=4)
>>> plan.partition([("e1", "alice", "bob"), ("e2", "alice", "bob")])
... # doctest: +ELLIPSIS
ShardManifest(...)
>>> plan.execute().adjacency["alice", "bob"]
2

The op-pair is certification-gated at construction time (mirroring
:class:`~repro.core.streaming.StreamingAdjacencyBuilder`): pairs that
fail the Theorem II.1 criteria, or whose ``⊕`` is not associative and
commutative, are refused unless ``unsafe_ok=True``.

Sources accepted by :meth:`partition` / :meth:`run`:

* an iterable of ``(key, src, dst[, w_out, w_in])`` tuples;
* an :class:`~repro.graphs.digraph.EdgeKeyedDigraph` (plus optional
  ``out_values``/``in_values`` weight specs);
* an in-memory ``(Eout, Ein)`` incidence-array pair;
* a ``(eout_path, ein_path)`` pair of TSV-triple files — read in
  bounded chunks of about 1 MiB, never materialized (the out-of-core
  ingest path), and parsed once: shards are written in the integer
  ``"coded"`` format when the values allow (see
  :mod:`repro.shard.manifest`).

Plans are context managers: for the staged flow (``partition()`` now,
``execute()`` later), ``with ShardedAdjacencyPlan(...) as plan: ...``
guarantees the staged shard set is cleaned up even when the plan is
abandoned before :meth:`~ShardedAdjacencyPlan.execute`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import BACKEND_KINDS
from repro.arrays.keys import KeySet
from repro.core.certify import Certification, certify
from repro.graphs.incidence import ValueSpec
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.shard.executor import EXECUTORS, execute_shards, vertex_keys
from repro.shard.manifest import MANIFEST_NAME, ShardError, ShardManifest
from repro.shard.merge import check_merge_safety, merge_spilled
from repro.shard.partition import (
    STRATEGIES,
    partition_edge_records,
    partition_tsv_pair,
)
from repro.shard.source import _is_array_pair, edge_records
from repro.values.semiring import OpPair

__all__ = ["ShardedResult", "ShardedAdjacencyPlan", "sharded_adjacency"]

#: Plan-owned subdirectory of the workdir for spill files (per-shard
#: adjacency results and merge intermediates).
_SPILL_DIR = "spill"


@dataclass(frozen=True)
class ShardedResult:
    """Outcome of one executed plan."""

    adjacency: AssociativeArray
    manifest: ShardManifest
    shard_nnz: Tuple[int, ...]
    timings: Dict[str, float]

    @property
    def nnz(self) -> int:
        """Stored entries of the merged adjacency array."""
        return self.adjacency.nnz


def _is_path_pair(source: Any) -> bool:
    return (isinstance(source, (tuple, list)) and len(source) == 2
            and all(isinstance(x, (str, Path)) for x in source))


class ShardedAdjacencyPlan:
    """Out-of-core ``A = EoutᵀEin`` through on-disk edge shards.

    Parameters
    ----------
    op_pair:
        The ``⊕.⊗`` algebra.  Certified on construction; violators (and
        order-sensitive ``⊕``) are rejected unless ``unsafe_ok``.
    n_shards:
        Number of edge shards to partition into.
    executor, n_workers:
        Per-shard construction backend — ``"serial"``, ``"thread"`` or
        ``"process"`` — and its worker count.  Process pools require the
        op-pair to be registered (shipped by name).
    mode, kernel:
        Forwarded to :func:`repro.arrays.matmul.multiply` per shard.
    backend:
        Array storage backend per shard (``"auto"``, ``"dict"``,
        ``"numeric"`` — see :mod:`repro.arrays.backend`).  ``"dict"``
        pins every shard to the generic paths; ``"numeric"`` compiles
        the columnar form at ingest and keeps it through the merge.
    shard_format:
        ``"tsv"``, ``"pickle"``, or ``"auto"``: for TSV-file sources
        ``"auto"`` writes integer-coded binary shards (``"coded"``,
        see :mod:`repro.shard.manifest`), falling back to ``"tsv"``
        when the values are not plain numbers or the zero is not; for
        in-memory sources pickle, whose key and value types only
        pickle preserves.
    strategy:
        Edge-key assignment, ``"round_robin"`` (default) or ``"hash"``.
    workdir:
        Directory for shards and spill files.  Default: a fresh
        temporary directory.  Unless ``keep_workdir``, the plan cleans
        up after :meth:`execute`: a temporary directory is removed
        outright; an explicit directory has the plan's own files (shard
        entries, spills, ``manifest.json``) removed and is otherwise
        left untouched.
    overwrite:
        Allow partitioning into an explicit ``workdir`` that already
        holds another run's shard set (its ``manifest.json`` and shard
        files are replaced).  Off by default so a kept shard set cannot
        be destroyed by accident; re-partitioning with the *same* plan
        instance never needs it.
    unsafe_ok:
        Accept non-compliant pairs; the result is then *not* guaranteed
        to equal batch construction.
    """

    def __init__(
        self,
        op_pair: OpPair,
        *,
        n_shards: int = 4,
        executor: str = "thread",
        n_workers: int = 4,
        mode: str = "sparse",
        kernel: str = "auto",
        backend: str = "auto",
        shard_format: str = "auto",
        strategy: str = "round_robin",
        workdir: Optional[Union[str, Path]] = None,
        keep_workdir: bool = False,
        overwrite: bool = False,
        unsafe_ok: bool = False,
        certification_seed: int = 0xD4,
    ) -> None:
        if n_shards < 1:
            raise ShardError("n_shards must be >= 1")
        if n_workers < 1:
            raise ShardError("n_workers must be >= 1")
        if mode not in ("sparse", "dense"):
            raise ShardError(
                f"unknown mode {mode!r}; use 'sparse' or 'dense'")
        if executor not in EXECUTORS:
            raise ShardError(
                f"unknown executor {executor!r}; use {EXECUTORS}")
        if strategy not in STRATEGIES:
            raise ShardError(
                f"unknown partition strategy {strategy!r}; use {STRATEGIES}")
        if shard_format not in ("auto", "tsv", "pickle"):
            raise ShardError(
                f"unknown shard format {shard_format!r}; use 'auto', "
                "'tsv' or 'pickle'")
        if backend not in BACKEND_KINDS:
            raise ShardError(
                f"unknown backend {backend!r}; use one of {BACKEND_KINDS}")
        self._pair = op_pair
        self._certification = certify(op_pair, seed=certification_seed,
                                      build_witness=False)
        check_merge_safety(op_pair, unsafe_ok=unsafe_ok,
                           certification=self._certification)
        self.n_shards = n_shards
        self.executor = executor
        self.n_workers = n_workers
        self.mode = mode
        self.kernel = kernel
        self.backend = backend
        # "auto" is resolved per source in partition(): TSV files carry
        # string keys and pre-round-tripped values, so coded (or TSV)
        # shards are faithful; any in-memory source may hold arbitrary
        # key/value types, which only pickle preserves.
        self.shard_format = shard_format
        self.strategy = strategy
        self.keep_workdir = keep_workdir
        self.overwrite = overwrite
        self._workdir = Path(workdir) if workdir is not None else None
        # A temp workdir is always plan-owned; an explicit one holds
        # foreign content until this plan first partitions into it.
        self._owns_workdir_content = workdir is None
        self._spill_created = False
        self._tempdir: Optional[Path] = None
        self._manifest: Optional[ShardManifest] = None
        self._final_keys: Optional[Tuple[KeySet, KeySet]] = None
        self._partition_seconds = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def op_pair(self) -> OpPair:
        """The algebra this plan constructs over."""
        return self._pair

    @property
    def certification(self) -> Certification:
        """The Theorem II.1 certification computed at construction."""
        return self._certification

    @property
    def order_sensitive(self) -> bool:
        """Whether ``⊕`` is flagged non-associative/non-commutative (the
        equivalence-to-batch guarantee is waived if so)."""
        return not (self._pair.add.associative
                    and self._pair.add.commutative)

    @property
    def manifest(self) -> Optional[ShardManifest]:
        """The shard manifest, once :meth:`partition` has run."""
        return self._manifest

    @property
    def workdir(self) -> Path:
        """The plan's working directory (created on demand)."""
        if self._workdir is None:
            self._tempdir = Path(tempfile.mkdtemp(prefix="repro-shard-"))
            self._workdir = self._tempdir
        return self._workdir

    # ------------------------------------------------------------------
    # plan → execute
    # ------------------------------------------------------------------
    def partition(
        self,
        source: Any,
        *,
        out_values: ValueSpec = None,
        in_values: ValueSpec = None,
    ) -> ShardManifest:
        """Split ``source`` into on-disk shards under :attr:`workdir`."""
        start = time.perf_counter()
        # Per-source state resets first: a partition that fails midway
        # must not leave a stale manifest pairing with partially
        # rewritten shard files (execute() would silently build a wrong
        # adjacency from the mix).
        self._final_keys = None
        self._manifest = None
        with span("shard.partition", n_shards=self.n_shards), \
                self._stage_timer("partition"):
            return self._partition(source, out_values=out_values,
                                   in_values=in_values, start=start)

    def _stage_timer(self, stage: str):
        """Timer feeding the ``shard_stage_seconds{stage=...}`` histogram."""
        return get_registry().histogram(
            "shard_stage_seconds",
            "Wall time per sharded-construction stage",
            stage=stage).time()

    def _partition(
        self,
        source: Any,
        *,
        out_values: ValueSpec,
        in_values: ValueSpec,
        start: float,
    ) -> ShardManifest:
        try:
            shard_dir = self.workdir
            existing = shard_dir / MANIFEST_NAME
            if existing.exists():
                if (not self.overwrite
                        and not self._owns_workdir_content):
                    # Another run's kept shard set lives here; silently
                    # truncating its files would destroy it.
                    raise ShardError(
                        f"{shard_dir} already contains a shard set "
                        "(manifest.json); pass overwrite=True to "
                        "replace it")
                # Replacing a set means replacing it whole: remove the
                # old manifest's listed shard files too, or a smaller
                # repartition would orphan the higher-numbered ones
                # next to the new manifest.
                try:
                    for path in ShardManifest.load(existing).data_files():
                        path.unlink(missing_ok=True)
                except ShardError:
                    pass  # unreadable old manifest; just replace it
                # Dropping the manifest itself also ensures a partition
                # that fails midway cannot leave a stale manifest for
                # ShardManifest.load() to resurrect over partial files.
                existing.unlink(missing_ok=True)
            self._owns_workdir_content = True
            if _is_path_pair(source):
                fmt = ("coded" if self.shard_format == "auto"
                       else self.shard_format)
                manifest = partition_tsv_pair(
                    source[0], source[1], self.n_shards, shard_dir,
                    shard_format=fmt, strategy=self.strategy,
                    zero=self._pair.zero, op_pair_name=self._pair.name)
            else:
                if _is_array_pair(source):
                    # Remember explicit key sets so the merged result
                    # matches batch construction even in the presence of
                    # empty rows/columns.
                    self._final_keys = (source[0].col_keys,
                                        source[1].col_keys)
                fmt = ("pickle" if self.shard_format == "auto"
                       else self.shard_format)
                records = edge_records(
                    source, zero=self._pair.zero, one=self._pair.one,
                    out_values=out_values, in_values=in_values)
                manifest = partition_edge_records(
                    records, self.n_shards, shard_dir,
                    shard_format=fmt, strategy=self.strategy,
                    op_pair_name=self._pair.name)
        except Exception:
            self._cleanup()
            raise
        self._manifest = manifest
        self._partition_seconds = time.perf_counter() - start
        return manifest

    def execute(self) -> ShardedResult:
        """Run per-shard construction and the ⊕-merge tree."""
        if self._manifest is None:
            raise ShardError("nothing to execute; call partition() first")
        try:
            t0 = time.perf_counter()
            # Spills live in a plan-created subdirectory so cleanup can
            # remove them wholesale without ever touching user files.
            spill_dir = self.workdir / _SPILL_DIR
            if not spill_dir.exists():
                self._spill_created = True  # cleanup may remove it
            with self._stage_timer("execute"):
                products = execute_shards(
                    self._manifest, self._pair, executor=self.executor,
                    n_workers=self.n_workers, mode=self.mode,
                    kernel=self.kernel, backend=self.backend,
                    workdir=spill_dir)
            t1 = time.perf_counter()
            with span("shard.merge", shards=len(products)), \
                    self._stage_timer("merge"):
                adjacency = merge_spilled(
                    [p.path for p in products], self._pair,
                    workdir=spill_dir, unsafe_ok=True,  # gated in __init__
                    cleanup=not self.keep_workdir,
                    keys=vertex_keys(self._manifest))
            t2 = time.perf_counter()
        except Exception:
            self._cleanup()
            raise
        if self._final_keys is not None:
            adjacency = adjacency.with_keys(*self._final_keys)
        manifest = self._manifest
        if not self.keep_workdir:
            # The shard files are about to be removed (with the temp dir,
            # or individually from an explicit workdir); detach the
            # returned manifest so its paths cannot dangle
            # (counts/strategy stay useful, shard_paths() raises cleanly).
            manifest = replace(manifest, root=None)
        result = ShardedResult(
            adjacency=adjacency,
            manifest=manifest,
            shard_nnz=tuple(p.nnz for p in products),
            timings={
                "partition": self._partition_seconds,
                "execute": t1 - t0,
                "merge": t2 - t1,
                "total": self._partition_seconds + (t2 - t0),
            },
        )
        self._cleanup()
        return result

    def run(
        self,
        source: Any,
        *,
        out_values: ValueSpec = None,
        in_values: ValueSpec = None,
    ) -> ShardedResult:
        """:meth:`partition` then :meth:`execute` in one call."""
        self.partition(source, out_values=out_values, in_values=in_values)
        return self.execute()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Remove the plan's on-disk state without executing.

        For the staged flow (``partition()`` now, maybe ``execute()``
        later): call this — or use the plan as a context manager — when
        abandoning a partitioned plan, so the staged shard set (a full
        on-disk copy of the edge data) is not leaked.  A no-op for
        ``keep_workdir`` plans and plans with nothing staged.
        """
        self._cleanup()

    def __enter__(self) -> "ShardedAdjacencyPlan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cleanup()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Safety net for abandoned plans: never let a mkdtemp'd workdir
        # outlive the object.  Only the temp dir is touched (explicit
        # workdirs may still be wanted by the user after a crash).
        try:
            if self._tempdir is not None and not self.keep_workdir:
                shutil.rmtree(self._tempdir, ignore_errors=True)
        except Exception:
            pass

    def _cleanup(self) -> None:
        if self.keep_workdir:
            return
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None
            self._workdir = None
            self._manifest = None  # its files are gone
        elif self._workdir is not None and self._owns_workdir_content:
            # Explicit workdir this plan has written into: remove
            # exactly what it wrote — the manifest-listed shard files
            # and key tables, the manifest, and the spill subdirectory if
            # this plan created it — leaving the user's directory
            # (including a pre-existing spill/ of theirs, or a foreign
            # kept shard set we refused to touch) otherwise untouched.
            if self._manifest is not None and self._manifest.root is not None:
                for path in self._manifest.data_files():
                    path.unlink(missing_ok=True)
                (self._manifest.root / MANIFEST_NAME).unlink(missing_ok=True)
            if self._spill_created:
                shutil.rmtree(self._workdir / _SPILL_DIR,
                              ignore_errors=True)
                self._spill_created = False
            self._manifest = None


def sharded_adjacency(
    source: Any,
    op_pair: OpPair,
    **options: Any,
) -> AssociativeArray:
    """One-shot sharded construction; returns just the adjacency array.

    ``options`` are :class:`ShardedAdjacencyPlan` keyword arguments.
    """
    return ShardedAdjacencyPlan(op_pair, **options).run(source).adjacency
