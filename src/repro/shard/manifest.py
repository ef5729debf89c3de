"""On-disk shard layout and its JSON manifest.

A *shard set* is a directory holding, for each shard ``s``, a pair of
incidence-entry files — ``shard_00000.eout.<ext>`` and
``shard_00000.ein.<ext>`` — plus one ``manifest.json`` describing the
whole set.  Restricting both incidence arrays to a shard's edge keys
``Kₛ`` is exactly the decomposition the paper's construction permits:

    ``A = Eoutᵀ ⊕.⊗ Ein = ⊕ₛ (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)``

because the contraction runs over the edge dimension and ``⊕`` (for
certified pairs) is associative and commutative.

Three entry-file formats exist:

``"coded"`` (manifest ``format_version`` 2)
    What ``ShardedAdjacencyPlan`` and ``repro build`` write for a TSV
    incidence pair whose values are all plain numbers (ints below 2⁵³,
    floats) and whose op-pair has a plain numeric zero.  Every key is
    replaced by an int64 code, so the files are parsed once, by the
    partitioner:

    * ``shard_00000.eout.bin`` / ``shard_00000.ein.bin`` — fixed-width
      little-endian records of :data:`RECORD` (``row`` int64 edge code,
      ``col`` int64 vertex code, ``val`` float64 value; 24 bytes each),
      in input order, no header (read with ``np.fromfile``).  Codes
      follow first sight (edges across Eout then Ein, vertices per
      side) and assign shards exactly as the ``"tsv"`` format does;
    * ``keys.edge.txt``, ``keys.out.txt``, ``keys.in.txt`` — the edge
      keys and each side's vertex keys, sorted, UTF-8, one per line:
      line ``r`` is the key of *rank* ``r``;
    * ``rank.edge.npy``, ``rank.out.npy``, ``rank.in.npy`` — int64
      ``.npy`` arrays mapping each code to its key's rank (loaded with
      ``allow_pickle=False``).

    The manifest also records each side's ``value_types`` (``"int"``
    or ``"float"``) so values decode to the Python type their text
    parsed to.  Because a rank's integer order is the key's string
    order, executors build per-shard arrays keyed by ranks — in the
    same order, so with the same ⊕ fold order, as string keys — and
    every shard result shares the same global vertex key sets; the
    string :class:`~repro.arrays.keys.KeySet` s are attached once,
    after the merge.  The tables are written before the manifest,
    every file through :func:`~repro.arrays.io.atomic_write`.
``"tsv"``
    ``edge_key<TAB>vertex<TAB>value`` lines — the D4M interchange format
    of :mod:`repro.arrays.io`; human-readable, limited to scalar values
    that survive the text round-trip (int/float/str).  Used for TSV
    pairs the coded format cannot hold (text values, ints of 2⁵³ or
    more, a value file mixing int and float texts, a non-numeric zero)
    and when asked for by name (``shard_format="tsv"``).
``"pickle"``
    A stream of pickled ``(edge_key, vertex, value)`` tuples — arbitrary
    value sets (booleans, frozensets, tuples), arbitrary key types.
    Used for in-memory sources (edge tuples, graphs, array pairs).

The manifest stores paths *relative to its own directory* so a shard set
can be moved or archived wholesale.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.arrays.io import atomic_write

__all__ = [
    "ShardError",
    "ShardInfo",
    "ShardManifest",
    "FORMAT_VERSION",
    "RECORD",
    "read_records",
    "read_key_table",
    "read_rank_table",
    "check_codes",
    "save_npy",
]

#: Manifest schema version of ``"coded"`` sets (bump on incompatible
#: layout changes); ``"tsv"`` and ``"pickle"`` sets keep version 1.
FORMAT_VERSION = 2

#: Schema version per entry-file format.
_VERSIONS = {"tsv": 1, "pickle": 1, "coded": FORMAT_VERSION}

#: File name of the manifest inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Known entry-file formats.
FORMATS = ("tsv", "pickle", "coded")

#: One coded entry: (edge or row code, vertex or column code, value).
#: Coded shard files and the merge tree's ``.npy`` spills share it.
RECORD = np.dtype([("row", "<i8"), ("col", "<i8"), ("val", "<f8")])

#: Key and rank tables of a coded set (see the module docstring).
TABLES = {"edge": "keys.edge.txt", "out": "keys.out.txt",
          "in": "keys.in.txt", "edge_rank": "rank.edge.npy",
          "out_rank": "rank.out.npy", "in_rank": "rank.in.npy"}

#: Value types a coded set records per side.
VALUE_TYPES = ("int", "float")


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
        Entry-file format, ``"coded"``, ``"tsv"`` or ``"pickle"``.
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
    value_types:
        ``"coded"`` sets only: the Python type (``"int"`` or
        ``"float"``) every Eout and every Ein value parsed to.
    """

    format: str
    strategy: str
    n_edges: int
    shards: Tuple[ShardInfo, ...]
    op_pair: Optional[str] = None
    root: Optional[Path] = field(default=None, compare=False)
    value_types: Optional[Tuple[str, str]] = None

    @property
    def n_shards(self) -> int:
        """Number of shards in the set."""
        return len(self.shards)

    @property
    def version(self) -> int:
        """Manifest schema version (2 for ``"coded"`` sets, else 1)."""
        return _VERSIONS[self.format]

    def _root(self) -> Path:
        if self.root is None:
            raise ShardError(
                "manifest has no root directory; save() or load() it first")
        return self.root

    def shard_paths(self, info: ShardInfo) -> Tuple[Path, Path]:
        """Absolute ``(eout, ein)`` paths of one shard."""
        root = self._root()
        return root / info.eout_path, root / info.ein_path

    def table_path(self, name: str) -> Path:
        """Absolute path of a coded set's key table (``"edge"``,
        ``"out"``, ``"in"``) or rank table (``"edge_rank"``,
        ``"out_rank"``, ``"in_rank"``)."""
        return self._root() / TABLES[name]

    def table_paths(self) -> List[Path]:
        """A coded set's key and rank tables (empty for other formats)."""
        if self.format != "coded":
            return []
        return [self.table_path(name) for name in TABLES]

    def data_files(self) -> List[Path]:
        """Every file of the set except the manifest: shard entry files
        and, for coded sets, the key and rank tables."""
        files = [p for info in self.shards for p in self.shard_paths(info)]
        return files + self.table_paths()

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
        if self.format == "coded":
            doc["value_types"] = dict(zip(("eout", "ein"),
                                          self.value_types or ()))
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
        if version not in set(_VERSIONS.values()):
            raise ShardError(
                f"manifest {p} has format_version {version!r}; this build "
                f"reads versions 1 and {FORMAT_VERSION}")
        fmt = doc.get("format")
        if fmt not in FORMATS:
            raise ShardError(f"manifest {p} has unknown format {fmt!r}")
        if version != _VERSIONS[fmt]:
            raise ShardError(
                f"manifest {p}: format {fmt!r} needs format_version "
                f"{_VERSIONS[fmt]}, got {version!r}")
        try:
            shards = tuple(
                ShardInfo(**{k: s[k] for k in (
                    "index", "eout_path", "ein_path", "n_edges",
                    "n_out_entries", "n_in_entries")})
                for s in doc.get("shards", ()))
            value_types = None
            if fmt == "coded":
                value_types = (doc["value_types"]["eout"],
                               doc["value_types"]["ein"])
                if not set(value_types) <= set(VALUE_TYPES):
                    raise TypeError(f"value_types {value_types!r}")
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
            value_types=value_types,
        )

    def with_root(self, root: Union[str, Path]) -> "ShardManifest":
        """A copy anchored at ``root``."""
        return replace(self, root=Path(root))


# ---------------------------------------------------------------------------
# Coded-set readers (every damage surfaces as a ShardError naming the file)
# ---------------------------------------------------------------------------

def read_records(path: Path, expected: int) -> np.ndarray:
    """A coded shard file as a :data:`RECORD` array of ``expected``
    records (the manifest's entry count for it)."""
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise ShardError(f"missing shard file {path}") from None
    if size % RECORD.itemsize:
        raise ShardError(
            f"{path}: {size} bytes is not a whole number of "
            f"{RECORD.itemsize}-byte records (truncated?)")
    if size // RECORD.itemsize != expected:
        raise ShardError(
            f"{path}: holds {size // RECORD.itemsize} records, the "
            f"manifest says {expected}")
    return np.fromfile(path, dtype=RECORD)


def read_key_table(path: Path) -> List[str]:
    """A coded set's key table: one key per line."""
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ShardError(f"missing key table {path}") from None
    if text and not text.endswith("\n"):
        raise ShardError(f"{path}: key table is truncated")
    return text.split("\n")[:-1]


def read_rank_table(path: Path) -> np.ndarray:
    """A coded set's code → rank table."""
    try:
        ranks = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise ShardError(f"missing key table {path}") from None
    except ValueError as exc:
        raise ShardError(f"{path}: unreadable rank table ({exc})") from None
    if ranks.dtype != np.int64 or ranks.ndim != 1:
        raise ShardError(f"{path}: rank table is not a 1-d int64 array")
    return ranks


def check_codes(codes: np.ndarray, size: int, path: Path, what: str) -> None:
    """Raise unless every code indexes a table of ``size`` entries."""
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= size):
        raise ShardError(
            f"{path}: {what} code outside its key table "
            f"({size} entries)")


def save_npy(path: Path, array: np.ndarray) -> None:
    """Write ``array`` as an ``.npy`` file through
    :func:`~repro.arrays.io.atomic_write`, in one write."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    with atomic_write(path, binary=True) as fh:
        fh.write(buf.getbuffer())
