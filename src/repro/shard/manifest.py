"""On-disk shard layout and its JSON manifest.

A *shard set* is a directory holding, for each shard ``s``, a pair of
incidence-entry files — ``shard_00000.eout.<ext>`` and
``shard_00000.ein.<ext>`` — plus one ``manifest.json`` describing the
whole set.  Restricting both incidence arrays to a shard's edge keys
``Kₛ`` is exactly the decomposition the paper's construction permits:

    ``A = Eoutᵀ ⊕.⊗ Ein = ⊕ₛ (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)``

because the contraction runs over the edge dimension and ``⊕`` (for
certified pairs) is associative and commutative.

Two entry-file formats exist:

``"tsv"``
    ``edge_key<TAB>vertex<TAB>value`` lines — the D4M interchange format
    of :mod:`repro.arrays.io`; human-readable, limited to scalar values
    that survive the text round-trip (int/float/str).
``"pickle"``
    A stream of pickled ``(edge_key, vertex, value)`` tuples — arbitrary
    value sets (booleans, frozensets, tuples), arbitrary key types.

The manifest stores paths *relative to its own directory* so a shard set
can be moved or archived wholesale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.arrays.io import atomic_write

__all__ = ["ShardError", "ShardInfo", "ShardManifest", "FORMAT_VERSION"]

#: Manifest schema version (bump on incompatible layout changes).
FORMAT_VERSION = 1

#: File name of the manifest inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Known entry-file formats.
FORMATS = ("tsv", "pickle")


class ShardError(ValueError):
    """Raised for malformed shard sets, manifests, or shard parameters."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard's files and sizes (paths relative to the manifest dir)."""

    index: int
    eout_path: str
    ein_path: str
    n_edges: int
    n_out_entries: int
    n_in_entries: int


@dataclass(frozen=True)
class ShardManifest:
    """Description of a complete shard set.

    Attributes
    ----------
    format:
        Entry-file format, ``"tsv"`` or ``"pickle"``.
    strategy:
        Partitioning strategy that produced the set (``"round_robin"`` or
        ``"hash"``) — informational; execution does not depend on it.
    n_edges:
        Total number of distinct edge keys across all shards.
    shards:
        Per-shard file records, in shard-index order.
    op_pair:
        Registry name of the op-pair the set was partitioned for, when
        known (``zero`` values were validated against it); purely
        informational at execution time.
    root:
        Directory holding the files.  Not serialized; set on save/load.
    version:
        Manifest schema version.
    """

    format: str
    strategy: str
    n_edges: int
    shards: Tuple[ShardInfo, ...]
    op_pair: Optional[str] = None
    root: Optional[Path] = field(default=None, compare=False)
    version: int = FORMAT_VERSION

    @property
    def n_shards(self) -> int:
        """Number of shards in the set."""
        return len(self.shards)

    def shard_paths(self, info: ShardInfo) -> Tuple[Path, Path]:
        """Absolute ``(eout, ein)`` paths of one shard."""
        if self.root is None:
            raise ShardError(
                "manifest has no root directory; save() or load() it first")
        return self.root / info.eout_path, self.root / info.ein_path

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """The manifest as a JSON document (without ``root``)."""
        doc = {
            "format_version": self.version,
            "format": self.format,
            "strategy": self.strategy,
            "n_edges": self.n_edges,
            "op_pair": self.op_pair,
            "shards": [asdict(s) for s in self.shards],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, directory: Union[str, Path, None] = None) -> Path:
        """Write ``manifest.json`` into ``directory`` (default: root).

        The write is atomic (:func:`~repro.arrays.io.atomic_write`): a
        reader sees the previous manifest or the new one, never a
        partial document.
        """
        root = Path(directory) if directory is not None else self.root
        if root is None:
            raise ShardError("no directory to save the manifest into")
        path = root / MANIFEST_NAME
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        """Read a manifest from ``manifest.json`` (or its directory)."""
        p = Path(path)
        if p.is_dir():
            p = p / MANIFEST_NAME
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ShardError(f"no manifest at {p}") from None
        except json.JSONDecodeError as exc:
            raise ShardError(f"malformed manifest {p}: {exc}") from None
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise ShardError(
                f"manifest {p} has format_version {version!r}; this build "
                f"reads version {FORMAT_VERSION}")
        fmt = doc.get("format")
        if fmt not in FORMATS:
            raise ShardError(f"manifest {p} has unknown format {fmt!r}")
        try:
            shards = tuple(
                ShardInfo(**{k: s[k] for k in (
                    "index", "eout_path", "ein_path", "n_edges",
                    "n_out_entries", "n_in_entries")})
                for s in doc.get("shards", ()))
        except (KeyError, TypeError) as exc:
            raise ShardError(
                f"malformed manifest {p}: bad shard record ({exc})"
            ) from None
        return cls(
            format=fmt,
            strategy=doc.get("strategy", "unknown"),
            n_edges=int(doc.get("n_edges", 0)),
            shards=shards,
            op_pair=doc.get("op_pair"),
            root=p.parent,
            version=version,
        )

    def with_root(self, root: Union[str, Path]) -> "ShardManifest":
        """A copy anchored at ``root``."""
        return replace(self, root=Path(root))
