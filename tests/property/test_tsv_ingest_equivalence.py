"""Columnar TSV ingest ≡ the per-line reader it replaced, property-based.

The oracle below is the line-at-a-time TSV-triple parser every ingest
path used before the chunked reader (:func:`repro.arrays.io.iter_tsv_blocks`)
and the per-line shard partitioner built on it.  The new code must agree
with them exactly:

* the reader yields the same triples (same value types, NaN included)
  on ints, floats, ``inf``/``nan``, strings, blank lines, CRLF, a
  missing final newline, non-ASCII keys and ints of 2⁵³ or more, and a
  malformed line raises the same error naming the same line;
* the chunked partitioner writes byte-identical shard files and
  manifest for both strategies and refuses the same inputs with the
  same message;
* column-built arrays equal dict-built ones: a repeated coordinate
  raises in :func:`~repro.shard.executor.load_shard` and ⊕-folds in
  :meth:`AdjacencyService.from_tsv`.

The chunk constant is patched down to a few characters so that block
edges fall inside lines, inside CRLF pairs and between fields.
"""

from __future__ import annotations

import math
import random
import tempfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays import io as tsv_io
from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeyError_, KeySet
from repro.serve import AdjacencyService
from repro.shard.executor import load_shard
from repro.shard.manifest import ShardError, ShardInfo, ShardManifest
from repro.shard.partition import partition_tsv_pair
from repro.values.semiring import get_op_pair

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The oracle: the per-line reader and partitioner before the chunked ingest
# ---------------------------------------------------------------------------

def _oracle_parse(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def oracle_triples(path):
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise KeyError_(
                    f"{p}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}")
            r, c, v = parts
            yield r, c, _oracle_parse(v)


def oracle_partition(eout: Path, ein: Path, n_shards: int, outdir: Path,
                     strategy: str, zero: Any = 0) -> None:
    """Route every line to its shard file, one line at a time."""
    assigned: Dict[str, int] = {}
    counts = [0] * n_shards
    side_seen: Dict[str, int] = {}
    files: Dict[str, List[str]] = {}
    entries: Dict[str, int] = {}

    def assign(key: str) -> int:
        if key not in assigned:
            if strategy == "round_robin":
                assigned[key] = len(assigned) % n_shards
            else:
                assigned[key] = zlib.crc32(key.encode("utf-8")) % n_shards
            counts[assigned[key]] += 1
        return assigned[key]

    for path, side, bit in ((eout, "eout", 1), (ein, "ein", 2)):
        for key, vertex, value in oracle_triples(path):
            if value == zero:
                raise ShardError(
                    f"{path}: incidence value for edge {key!r} equals the "
                    f"zero {zero!r}")
            sid = assign(key)
            side_seen[key] = side_seen.get(key, 0) | bit
            name = f"shard_{sid:05d}.{side}.tsv"
            files.setdefault(name, []).append(f"{key}\t{vertex}\t{value}\n")
    one_sided = [k for k, mask in side_seen.items() if mask != 3]
    if one_sided:
        sample = ", ".join(repr(k) for k in sorted(one_sided)[:5])
        raise ShardError(
            f"{len(one_sided)} edge key(s) appear in only one "
            f"incidence file (e.g. {sample}); Eout and Ein must "
            "cover the same edge set K")
    outdir.mkdir(parents=True)
    infos = []
    for i in range(n_shards):
        for side in ("eout", "ein"):
            name = f"shard_{i:05d}.{side}.tsv"
            lines = files.get(name, [])
            (outdir / name).write_text("".join(lines), encoding="utf-8")
            entries[name] = len(lines)
        infos.append(ShardInfo(
            index=i, eout_path=f"shard_{i:05d}.eout.tsv",
            ein_path=f"shard_{i:05d}.ein.tsv", n_edges=counts[i],
            n_out_entries=entries[f"shard_{i:05d}.eout.tsv"],
            n_in_entries=entries[f"shard_{i:05d}.ein.tsv"]))
    ShardManifest(format="tsv", strategy=strategy, n_edges=len(assigned),
                  shards=tuple(infos)).save(outdir)


def oracle_load(manifest: ShardManifest, info: ShardInfo, zero: Any
                ) -> Tuple[AssociativeArray, AssociativeArray]:
    eout_path, ein_path = manifest.shard_paths(info)
    out_t = list(oracle_triples(eout_path))
    in_t = list(oracle_triples(ein_path))
    rows = KeySet({k for k, _v, _w in out_t} | {k for k, _v, _w in in_t})
    return (AssociativeArray.from_triples(out_t, row_keys=rows, zero=zero),
            AssociativeArray.from_triples(in_t, row_keys=rows, zero=zero))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _norm(triple) -> Tuple[str, str, str, str]:
    """Exact identity of one parsed triple: type and repr of the value
    (repr tells NaN, ±0.0 and ints of any size apart)."""
    r, c, v = triple
    return r, c, type(v).__name__, repr(v)


def _outcome(triples_fn, path) -> Tuple[list, Optional[str]]:
    """Triples yielded before any error, and the error (type: message)."""
    got = []
    try:
        for t in triples_fn(path):
            got.append(_norm(t))
    except Exception as exc:  # noqa: BLE001 - compared verbatim
        return got, f"{type(exc).__name__}: {exc}"
    return got, None


def _chunked(size: int):
    return mock.patch.object(tsv_io, "TSV_CHUNK_CHARS", size)


def _same_values(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Key text: anything but the field and line separators (``\x0b``,
#: ``\x1c`` or ``\u2028`` are line breaks for ``str.splitlines`` but
#: not for a text file, so they are fair game).
KEYS = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r",
                           blacklist_categories=("Cs",)),
    min_size=0, max_size=6)

VALUE_TEXTS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(2**53 - 2, 2**70).map(str),
    st.integers(-2**70, -(2**53)).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e3", "007",
                     "+5", " 5", "5 ", "1_000", "-0", "0.0", "-0.0", "٣",
                     "hello", "", "x y", "ünï", "1e400", "0x10"]),
)

LINE_ENDS = st.sampled_from(["\n", "\r\n"])


@st.composite
def tsv_documents(draw, allow_malformed: bool = True):
    """``(text, n_lines)``: TSV-triple text with blank lines, mixed line
    ends, an optional missing final newline and, optionally, one
    malformed line."""
    n = draw(st.integers(0, 25))
    lines = []
    for _ in range(n):
        kind = draw(st.sampled_from(["ok"] * 8 + ["blank"]))
        if kind == "blank":
            lines.append("")
        else:
            lines.append("\t".join([draw(KEYS), draw(KEYS),
                                    draw(VALUE_TEXTS)]))
    if allow_malformed and lines and draw(st.booleans()):
        fields = draw(st.sampled_from([1, 2, 4, 5]))
        bad = "\t".join(draw(KEYS) or "k" for _ in range(fields))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = [draw(LINE_ENDS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]   # no final newline
    return text


CHUNKS = st.integers(1, 48)


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------

class TestReader:
    @settings(max_examples=250, **COMMON)
    @given(text=tsv_documents(), chunk=CHUNKS)
    def test_reader_matches_oracle(self, text, chunk):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.tsv"
            path.write_text(text, encoding="utf-8", newline="")
            want = _outcome(oracle_triples, path)
            with _chunked(chunk):
                got = _outcome(tsv_io.iter_tsv_triples, path)
            assert got == want
            with _chunked(chunk):
                try:
                    columns = tsv_io.read_tsv_columns(path)
                except KeyError_ as exc:
                    assert want[1] == f"KeyError_: {exc}"
                else:
                    assert want[1] is None
                    assert [_norm(t) for t in zip(*columns)] == want[0]

    @settings(max_examples=60, **COMMON)
    @given(text=tsv_documents(), chunk=CHUNKS)
    def test_default_chunk_matches_small_chunks(self, text, chunk):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.tsv"
            path.write_text(text, encoding="utf-8", newline="")
            whole = _outcome(tsv_io.iter_tsv_triples, path)
            with _chunked(chunk):
                assert _outcome(tsv_io.iter_tsv_triples, path) == whole

    def test_custom_value_parser_sees_every_value(self, tmp_path):
        path = tmp_path / "hex.tsv"
        path.write_text("r\tc\t0x10\r\n\nr\td\tff", encoding="utf-8",
                        newline="")
        with _chunked(3):
            got = list(tsv_io.iter_tsv_triples(
                path, value_parser=lambda s: int(s, 16)))
        assert got == [("r", "c", 16), ("r", "d", 255)]

    def test_malformed_line_number_counts_blank_and_crlf_lines(
            self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\r\n\r\n\nc\td\n", encoding="utf-8",
                        newline="")
        with _chunked(2), pytest.raises(KeyError_) as exc:
            list(tsv_io.iter_tsv_triples(path))
        assert str(exc.value) == \
            f"{path}:4: expected 3 tab-separated fields, got 2"


# ---------------------------------------------------------------------------
# The partitioner
# ---------------------------------------------------------------------------

@st.composite
def incidence_pairs(draw):
    """Eout/Ein text over a small edge-key pool (so keys repeat and
    hyperedges appear), values nonzero in mostly canonical but sometimes
    non-canonical text; optionally a zero value or a one-sided key."""
    pool = draw(st.lists(KEYS.filter(bool), min_size=1, max_size=8,
                         unique=True))
    nonzero = st.one_of(
        st.integers(1, 20).map(str),
        st.sampled_from(["2.5", "-3", "07", "+4", "1e3", "inf", "nan",
                         "x", "ünï", "9007199254740993"]))
    sides = []
    for _ in range(2):
        keys = draw(st.lists(st.sampled_from(pool), min_size=len(pool),
                             max_size=3 * len(pool)))
        keys = pool + keys  # every key on both sides
        rng = random.Random(draw(st.integers(0, 2**16)))
        rng.shuffle(keys)
        lines = [f"{k}\t{draw(KEYS)}\t{draw(nonzero)}" for k in keys]
        sides.append(lines)
    flaw = draw(st.sampled_from([None] * 6 + ["zero", "one_sided"]))
    if flaw == "zero":
        side = sides[draw(st.integers(0, 1))]
        side[draw(st.integers(0, len(side) - 1))] = f"{pool[0]}\tv\t0"
    elif flaw == "one_sided":
        sides[draw(st.integers(0, 1))].append("lonely-edge\tv\t1")
    return ["".join(line + "\n" for line in lines) for lines in sides]


def _tree(directory: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestPartition:
    @settings(max_examples=80, **COMMON)
    @given(pair=incidence_pairs(), n_shards=st.integers(1, 5),
           strategy=st.sampled_from(["round_robin", "hash"]),
           chunk=CHUNKS)
    def test_shard_files_and_manifest_are_byte_identical(
            self, pair, n_shards, strategy, chunk):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            eout, ein = root / "eout.tsv", root / "ein.tsv"
            eout.write_text(pair[0], encoding="utf-8")
            ein.write_text(pair[1], encoding="utf-8")
            want_err = got_err = None
            try:
                oracle_partition(eout, ein, n_shards, root / "want",
                                 strategy)
            except ShardError as exc:
                want_err = str(exc)
            with _chunked(chunk):
                try:
                    partition_tsv_pair(eout, ein, n_shards, root / "got",
                                       strategy=strategy)
                except ShardError as exc:
                    got_err = str(exc)
            assert got_err == want_err
            if want_err is None:
                assert _tree(root / "got") == _tree(root / "want")
            else:
                # A refused partition leaves nothing behind.
                assert not any((root / "got").glob("shard_*"))

    @settings(max_examples=40, **COMMON)
    @given(pair=incidence_pairs(), n_shards=st.integers(1, 4),
           chunk=CHUNKS)
    def test_loaded_shards_equal_dict_built_shards(self, pair, n_shards,
                                                   chunk):
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            eout, ein = root / "eout.tsv", root / "ein.tsv"
            eout.write_text(pair[0], encoding="utf-8")
            ein.write_text(pair[1], encoding="utf-8")
            try:
                manifest = partition_tsv_pair(eout, ein, n_shards,
                                              root / "shards")
            except ShardError:
                return
            for info in manifest.shards:
                for backend in ("auto", "dict"):
                    want = _outcome_of(oracle_load, manifest, info, 0)
                    with _chunked(chunk):
                        got = _outcome_of(_load, manifest, info, 0,
                                          backend)
                    assert got == want


def _load(manifest, info, zero, backend="auto"):
    return load_shard(manifest, info, zero=zero, backend=backend)


def _outcome_of(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared verbatim
        return ("error", f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Column-built arrays
# ---------------------------------------------------------------------------

@st.composite
def columns(draw):
    """Parallel key/value columns, large enough (≥ 256 entries) to take
    the columnar path under ``backend="auto"``; values plain numbers,
    or sprinkled with strings, bools, huge ints or a NaN; optionally
    a repeated coordinate."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(256, 400))
    n_rows = draw(st.integers(16, 40))
    n_cols = draw(st.integers(16, 40))
    keys_are = draw(st.sampled_from(["str", "int"]))

    def key(prefix, i):
        return f"{prefix}{i}" if keys_are == "str" else i

    coords = set()
    while len(coords) < min(n, n_rows * n_cols):
        coords.add((rng.randrange(n_rows), rng.randrange(n_cols)))
    coords = sorted(coords, key=lambda rc: rng.random())
    rows = [key("r", r) for r, _c in coords]
    cols = [key("c", c) for _r, c in coords]
    vals: List[Any] = [rng.choice([0, 1, 2, 3, 7, -4, 2.5, 0.0,
                                   float("inf"), -float("inf")])
                       for _ in coords]
    extra = draw(st.sampled_from([None, "str", "bool", "bigint", "nan",
                                  "duplicate"]))
    if vals and extra is not None:
        i = rng.randrange(len(vals))
        if extra == "duplicate":
            rows.append(rows[i])
            cols.append(cols[i])
            vals.append(5)
        else:
            vals[i] = {"str": "x", "bool": True, "bigint": 2**60 + 1,
                       "nan": float("nan")}[extra]
    return rows, cols, vals


def _both(rows, cols, vals, **kwargs):
    want = _outcome_of(lambda: AssociativeArray.from_triples(
        zip(rows, cols, vals), **kwargs))
    got = _outcome_of(lambda: AssociativeArray.from_columns(
        rows, cols, vals, **kwargs))
    return got, want


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    a, b = got[1], want[1]
    assert a == b
    assert a.row_keys == b.row_keys and a.col_keys == b.col_keys
    assert a.nnz == b.nnz


class TestFromColumns:
    @settings(max_examples=80, **COMMON)
    @given(data=columns(), zero=st.sampled_from([0, 0.0, float("inf"),
                                                 float("nan"), "z"]))
    def test_equals_from_triples(self, data, zero):
        rows, cols, vals = data
        _assert_same(*_both(rows, cols, vals, zero=zero))

    @settings(max_examples=40, **COMMON)
    @given(data=columns(), backend=st.sampled_from(["numeric", "dict"]))
    def test_equals_from_triples_per_backend(self, data, backend):
        rows, cols, vals = data
        got, want = _both(rows, cols, vals, backend=backend)
        _assert_same(got, want)
        if got[0] == "ok":
            assert got[1].backend == want[1].backend

    @settings(max_examples=40, **COMMON)
    @given(data=columns())
    def test_combine_folds_duplicates_like_from_triples(self, data):
        rows, cols, vals = data
        rows, cols, vals = rows + rows[:9], cols + cols[:9], vals + vals[:9]
        _assert_same(*_both(rows, cols, vals,
                            combine=lambda x, y: x + y))

    @settings(max_examples=40, **COMMON)
    @given(data=columns())
    def test_explicit_key_sets(self, data):
        rows, cols, vals = data
        row_keys = set(rows) | {"spare" if isinstance(rows[0], str) else -1}
        # A one-shot iterator must survive the fallback to the dict path.
        want = _outcome_of(lambda: AssociativeArray.from_triples(
            zip(rows, cols, vals), row_keys=row_keys,
            col_keys=iter(set(cols))))
        got = _outcome_of(lambda: AssociativeArray.from_columns(
            rows, cols, vals, row_keys=row_keys, col_keys=iter(set(cols))))
        _assert_same(got, want)
        row_keys.discard(rows[0])   # a stored key outside the set
        got, want = _both(rows, cols, vals, row_keys=row_keys)
        _assert_same(got, want)
        assert got[0] == "error"

    def test_large_numeric_input_is_stored_columnar(self):
        rows = [f"r{i % 50}" for i in range(1000)]
        cols = [f"c{i}" for i in range(1000)]
        vals = [i % 7 for i in range(1000)]
        a = AssociativeArray.from_columns(rows, cols, vals)
        assert a.backend == "numeric"
        assert a == AssociativeArray.from_triples(zip(rows, cols, vals))

    def test_small_input_keeps_dict_storage_and_int_values(self):
        a = AssociativeArray.from_columns(["r"], ["c"], [3])
        assert a.backend == "dict"
        assert isinstance(a.get("r", "c"), int)


# ---------------------------------------------------------------------------
# Shard load and the service source
# ---------------------------------------------------------------------------

class TestDuplicates:
    def _shard_with_duplicate(self, root: Path) -> ShardManifest:
        lines = [f"e{i}\tv{i % 17}\t{1 + i % 5}\n" for i in range(400)]
        eout = root / "eout.tsv"
        ein = root / "ein.tsv"
        eout.write_text("".join(lines) + "e3\tv3\t9\n", encoding="utf-8")
        ein.write_text("".join(lines), encoding="utf-8")
        return partition_tsv_pair(eout, ein, 1, root / "shards")

    def test_load_shard_raises_on_repeated_coordinate(self, tmp_path):
        manifest = self._shard_with_duplicate(tmp_path)
        info = manifest.shards[0]
        with pytest.raises(KeyError_, match="duplicate coordinate"):
            load_shard(manifest, info)
        with pytest.raises(KeyError_, match="duplicate coordinate"):
            oracle_load(manifest, info, 0)

    @pytest.mark.parametrize("pair_name", ["plus_times", "min_plus"])
    @pytest.mark.parametrize("n", [40, 600])
    def test_from_tsv_folds_duplicates_like_the_oracle(self, tmp_path,
                                                       pair_name, n):
        pair = get_op_pair(pair_name)
        rng = random.Random(n)
        lines = [f"v{rng.randrange(30)}\tv{rng.randrange(30)}\t"
                 f"{rng.randrange(1, 9)}\n" for _ in range(n)]
        path = tmp_path / "adj.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        want = AssociativeArray.from_triples(
            oracle_triples(path), zero=pair.zero, combine=pair.add)
        svc = AdjacencyService.from_tsv(path, pair)
        got = svc.snapshot().adjacency
        vertices = want.row_keys.union(want.col_keys)
        want = want.with_keys(vertices, vertices)
        assert got == want
        for r, c, v in want.entries():
            assert _same_values(got.get(r, c), v)


# ---------------------------------------------------------------------------
# The coded shard format
# ---------------------------------------------------------------------------

def _codable(path: Path) -> bool:
    """Whether one incidence file fits the coded format: every value a
    plain number float64 holds exactly, all of one Python type."""
    vals = [v for _k, _c, v in oracle_triples(path)]
    types = set(map(type, vals))
    return (len(types) <= 1 and types <= {int, float}
            and all(abs(v) <= 2**53 for v in vals if isinstance(v, int)))


def _decoded_lines(manifest: ShardManifest, info: ShardInfo,
                   side: str) -> str:
    """One coded shard side decoded through the key tables, as the
    lines the ``"tsv"`` format would hold, in file order."""
    import numpy as np
    root = manifest.root

    def table(name):
        text = (root / name).read_text(encoding="utf-8")
        return text.split("\n")[:-1]

    edges = table("keys.edge.txt")
    edge_ranks = np.load(root / "rank.edge.npy", allow_pickle=False)
    vertices = table(f"keys.{side}.txt")
    ranks = np.load(root / f"rank.{side}.npy", allow_pickle=False)
    path = root / (info.eout_path if side == "out" else info.ein_path)
    records = np.fromfile(path, dtype=[("row", "<i8"), ("col", "<i8"),
                                       ("val", "<f8")])
    as_int = manifest.value_types[side == "in"] == "int"
    return "".join(
        f"{edges[edge_ranks[e]]}\t{vertices[ranks[c]]}\t"
        f"{int(v) if as_int else v}\n"
        for e, c, v in records.tolist())


class TestCodedPartition:
    @settings(max_examples=80, **COMMON)
    @given(pair=incidence_pairs(), n_shards=st.integers(1, 5),
           strategy=st.sampled_from(["round_robin", "hash"]),
           chunk=CHUNKS)
    def test_coded_shards_decode_to_the_oracle_lines(
            self, pair, n_shards, strategy, chunk):
        """Decoded entries, shard by shard in file order, are the
        oracle's lines; counts match; non-numeric inputs fall back to a
        set byte-identical to an explicit ``"tsv"`` run."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            eout, ein = root / "eout.tsv", root / "ein.tsv"
            eout.write_text(pair[0], encoding="utf-8")
            ein.write_text(pair[1], encoding="utf-8")
            want_err = got_err = None
            try:
                oracle_partition(eout, ein, n_shards, root / "want",
                                 strategy)
            except ShardError as exc:
                want_err = str(exc)
            with _chunked(chunk):
                try:
                    got = partition_tsv_pair(eout, ein, n_shards,
                                             root / "got",
                                             shard_format="coded",
                                             strategy=strategy)
                except ShardError as exc:
                    got_err = str(exc)
            assert got_err == want_err
            if want_err is not None:
                assert not any((root / "got").iterdir())
                return
            want = ShardManifest.load(root / "want")
            assert got.format == ("coded" if _codable(eout)
                                  and _codable(ein) else "tsv")
            if got.format == "tsv":
                with _chunked(chunk):
                    partition_tsv_pair(eout, ein, n_shards, root / "tsv",
                                       strategy=strategy)
                assert _tree(root / "got") == _tree(root / "tsv")
                return
            assert got.version == 2
            assert got.n_edges == want.n_edges
            for g, w in zip(got.shards, want.shards, strict=True):
                assert (g.n_edges, g.n_out_entries, g.n_in_entries) == \
                    (w.n_edges, w.n_out_entries, w.n_in_entries)
                for side, name in (("out", w.eout_path),
                                   ("in", w.ein_path)):
                    assert _decoded_lines(got, g, side) == \
                        (root / "want" / name).read_text(encoding="utf-8")
            assert ShardManifest.load(root / "got") == got

    @settings(max_examples=40, **COMMON)
    @given(pair=incidence_pairs(), n_shards=st.integers(1, 4))
    def test_loaded_coded_shards_equal_dict_built_shards(self, pair,
                                                         n_shards):
        """``load_shard`` on a coded shard returns the string-keyed
        arrays the dict-built oracle builds from the same shard."""
        with tempfile.TemporaryDirectory() as d:
            root = Path(d)
            eout, ein = root / "eout.tsv", root / "ein.tsv"
            eout.write_text(pair[0], encoding="utf-8")
            ein.write_text(pair[1], encoding="utf-8")
            try:
                coded = partition_tsv_pair(eout, ein, n_shards,
                                           root / "coded",
                                           shard_format="coded")
            except ShardError:
                return
            oracle_partition(eout, ein, n_shards, root / "want",
                             "round_robin")
            want_set = ShardManifest.load(root / "want")
            for info, want_info in zip(coded.shards, want_set.shards):
                for backend in ("auto", "dict"):
                    want = _outcome_of(oracle_load, want_set, want_info, 0)
                    got = _outcome_of(_load, coded, info, 0, backend)
                    assert got == want
                    if got[0] == "ok":
                        for array in got[1]:
                            assert all(isinstance(k, str)
                                       for k in array.row_keys)
                            assert all(isinstance(k, str)
                                       for k in array.col_keys)


# ---------------------------------------------------------------------------
# Sharded ≡ batch through a TSV-pair source
# ---------------------------------------------------------------------------

from tests.property.test_shard_equivalence import (  # noqa: E402
    APPROX_PAIRS,
    MERGEABLE_PAIRS,
)
from tests.property.strategies import graph_with_values  # noqa: E402


def _tsv_carries(name: str) -> bool:
    """Whether a pair's zero and sampled values survive the TSV text
    round-trip (tuples, sets and booleans come back as strings)."""
    pair = get_op_pair(name)
    values = [pair.zero] + pair.domain.sample(random.Random(0), 40,
                                              exclude=pair.zero)
    return all(type(tsv_io._parse_scalar(str(v))) is type(v)
               and _same_values(tsv_io._parse_scalar(str(v)), v)
               for v in values)


#: Mergeable pairs whose values a TSV file can hold.
TSV_PAIRS = frozenset(name for name in MERGEABLE_PAIRS if _tsv_carries(name))


def test_tsv_sweep_covers_the_numeric_pairs():
    assert {"plus_times", "min_plus", "max_min",
            "log_semiring"} <= TSV_PAIRS


def _tsv_source_vs_batch(name, data, n_shards, executor, root: Path):
    """Batch construction over the arrays read back from a TSV pair
    against the sharded build of the same files (coded when the values
    allow, ``"tsv"`` otherwise): both fail, or they agree.  For pairs
    whose values the text cannot carry (:data:`TSV_PAIRS`) the sharded
    build may also fail where batch does not, but never disagrees."""
    from repro.arrays.io import read_tsv_triples, write_tsv_triples
    from repro.core.construction import adjacency_array
    from repro.graphs.incidence import incidence_arrays
    from repro.shard import sharded_adjacency

    pair = get_op_pair(name)
    graph, out_vals, in_vals = data
    e_out, e_in = incidence_arrays(graph, zero=pair.zero,
                                   out_values=out_vals, in_values=in_vals)
    eout, ein = root / "eout.tsv", root / "ein.tsv"
    write_tsv_triples(e_out, eout)
    write_tsv_triples(e_in, ein)
    want = _outcome_of(lambda: adjacency_array(
        read_tsv_triples(eout, zero=pair.zero),
        read_tsv_triples(ein, zero=pair.zero), pair, kernel="generic"))
    got = _outcome_of(lambda: sharded_adjacency(
        (eout, ein), pair, n_shards=n_shards, executor=executor,
        n_workers=2))
    if name in TSV_PAIRS:
        assert (got[0] == "ok") == (want[0] == "ok"), (got, want)
    if got[0] != "ok" or want[0] != "ok":
        return
    got, want = got[1], want[1]
    if name in APPROX_PAIRS:
        assert got.row_keys == want.row_keys
        assert got.col_keys == want.col_keys
        assert got.allclose(want), f"{name}: sharded ≉ batch"
    else:
        assert got == want, f"{name}: sharded ≠ batch"


def _make_tsv_source_test(name: str):
    @settings(max_examples=8, **COMMON)
    @given(data=graph_with_values(get_op_pair(name)),
           n_shards=st.integers(1, 5),
           executor=st.sampled_from(("serial", "thread")))
    def _test(data, n_shards, executor):
        with tempfile.TemporaryDirectory() as d:
            _tsv_source_vs_batch(name, data, n_shards, executor, Path(d))

    _test.__name__ = f"test_tsv_source_sharded_equals_batch_{name}"
    return _test


for _name in MERGEABLE_PAIRS:
    globals()[f"test_tsv_source_sharded_equals_batch_{_name}"] = \
        _make_tsv_source_test(_name)
del _name


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", MERGEABLE_PAIRS)
def test_tsv_source_sharded_equals_batch_process_executor(
        name, n_shards, tmp_path):
    """The process-executor leg (one deterministic example per pair and
    shard count; process pools spawn per call)."""
    import random as _random
    from repro.graphs.generators import erdos_renyi_multigraph
    pair = get_op_pair(name)
    graph = erdos_renyi_multigraph(8, 30, seed=7 + n_shards)
    rng = _random.Random(n_shards)
    keys = list(graph.edge_keys)
    out_vals = dict(zip(keys, pair.domain.sample(rng, len(keys),
                                                 exclude=pair.zero)))
    in_vals = dict(zip(keys, pair.domain.sample(rng, len(keys),
                                                exclude=pair.zero)))
    _tsv_source_vs_batch(name, (graph, out_vals, in_vals), n_shards,
                         "process", tmp_path)
