"""Exploded-view construction and file round-trips.

Figure 1's construction: a database table (rows = records, columns =
fields) becomes a sparse associative array whose column keys are
``field|value`` strings — "the column key and the value are concatenated
with a separator symbol (in this case ``|``) resulting in every unique pair
of column and value having its own column in the sparse view.  The new
value is usually 1 to denote the existence of an entry."

Multi-valued fields (a record with three writers) explode into several
columns, which is exactly how the music table yields multiple ``Writer|*``
entries per track.

Also provides TSV triple round-trips (the D4M on-disk format) and CSV table
reading.
"""

from __future__ import annotations

import csv
import io as _io
import os
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeyError_, KeySet

__all__ = [
    "explode_table",
    "collapse_exploded",
    "TSV_CHUNK_CHARS",
    "TsvBlock",
    "atomic_write",
    "iter_tsv_blocks",
    "iter_tsv_triples",
    "read_tsv_columns",
    "read_tsv_triples",
    "write_tsv_triples",
    "read_csv_table",
]

#: The separator the paper uses between field and value in column keys.
DEFAULT_SEPARATOR = "|"


def explode_table(
    table: Mapping[Any, Mapping[str, Any]],
    *,
    separator: str = DEFAULT_SEPARATOR,
    one: Any = 1,
    zero: Any = 0,
    fields: Optional[Sequence[str]] = None,
) -> AssociativeArray:
    """Build the Figure 1 sparse view of a table.

    Parameters
    ----------
    table:
        ``{row_key: {field: value_or_values}}``.  A field value may be a
        single scalar or a list/tuple/set/frozenset of scalars, each of
        which becomes its own ``field|value`` column.
    separator:
        Separator between field name and value in column keys.
    one:
        Stored value denoting presence (the paper uses 1).
    zero:
        The resulting array's zero element.
    fields:
        Optional whitelist of fields to explode (default: all).

    Returns
    -------
    AssociativeArray
        Rows = table row keys; columns = all observed ``field|value``
        strings; entries = ``one``.
    """
    data: Dict[Tuple[Any, str], Any] = {}
    for row_key, record in table.items():
        for field, value in record.items():
            if fields is not None and field not in fields:
                continue
            if separator in field:
                raise KeyError_(
                    f"field name {field!r} contains separator {separator!r}")
            values = value if isinstance(value, (list, tuple, set, frozenset)) \
                else [value]
            for v in values:
                col = f"{field}{separator}{v}"
                data[(row_key, col)] = one
    return AssociativeArray(data, zero=zero)


def collapse_exploded(
    array: AssociativeArray,
    *,
    separator: str = DEFAULT_SEPARATOR,
) -> Dict[Any, Dict[str, List[str]]]:
    """Invert :func:`explode_table` (values come back as strings).

    Returns ``{row_key: {field: [values...]}}`` with values in column-key
    order.  Only stored (nonzero) entries are reported.
    """
    out: Dict[Any, Dict[str, List[str]]] = {}
    for r, c, _v in array.entries():
        if not isinstance(c, str) or separator not in c:
            raise KeyError_(
                f"column key {c!r} is not an exploded '{separator}' key")
        field, _, value = c.partition(separator)
        out.setdefault(r, {}).setdefault(field, []).append(value)
    return out


# ---------------------------------------------------------------------------
# TSV triples (the D4M interchange format)
# ---------------------------------------------------------------------------

#: Number of lines buffered per write in :func:`write_tsv_triples`.
_WRITE_CHUNK = 16384

#: Characters :func:`iter_tsv_blocks` decodes per block (about 1 MiB).
#: One block's lines and field columns are the reader's whole working
#: set, so this bounds ingest memory independently of the file size;
#: 4 MiB blocks measurably raised a build's peak RSS without speeding
#: it up.
TSV_CHUNK_CHARS = 1 << 20


@contextmanager
def atomic_write(path: Union[str, Path], *, binary: bool = False,
                 **open_kwargs):
    """Open a temporary file beside ``path`` for writing; on success it
    is fsynced and replaces ``path`` in one ``os.replace``, on failure
    it is removed.

    Readers therefore see either the previous file or the complete new
    one, never a partial write, and a crash after the replace cannot
    leave the new name pointing at unwritten data.  ``binary`` opens
    the file in ``"xb"`` mode; ``open_kwargs`` (``encoding``,
    ``newline``) as for ``open``.
    """
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", **open_kwargs) as fh:
            yield fh
        _fsync(tmp)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fsync(path: Path) -> None:
    """Flush a closed file's data to stable storage."""
    fd = os.open(path, os.O_RDWR)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_tsv_triples(
    array: AssociativeArray,
    path: Union[str, Path],
    *,
    value_formatter=str,
) -> None:
    """Write stored entries as ``row<TAB>col<TAB>value`` lines in key order.

    Encoding streams straight off the array's storage backend —
    numeric-backed arrays iterate their lex-sorted columnar form, so no
    dict view is materialised and no Python-side sort runs — and lines
    are flushed in chunks rather than per entry.  The file is written
    through :func:`atomic_write`: a failed write leaves any existing
    ``path`` untouched.
    """
    chunk: List[str] = []
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        for r, c, v in array.entries():
            chunk.append(f"{r}\t{c}\t{value_formatter(v)}\n")
            if len(chunk) >= _WRITE_CHUNK:
                fh.write("".join(chunk))
                chunk.clear()
        if chunk:
            fh.write("".join(chunk))


class TsvBlock(NamedTuple):
    """One block of well-formed ``row<TAB>col<TAB>value`` lines, with
    the fields split into columns (index ``i`` of every list is one
    line)."""

    lines: List[str]
    """The lines, without line ends (blank lines are dropped)."""
    rows: List[str]
    cols: List[str]
    texts: List[str]
    """The value fields as written."""
    vals: List[Any]
    """The value fields parsed (see :func:`read_tsv_triples`)."""


def iter_tsv_blocks(
    path: Union[str, Path],
    *,
    value_parser=None,
) -> Iterator[TsvBlock]:
    """Read a TSV-triple file as column blocks of bounded size.

    This is the one TSV parser: every triple ingest (array reads, the
    shard partitioner and loader, the query service's source) goes
    through it.  The file is decoded :data:`TSV_CHUNK_CHARS` characters
    at a time, so memory is bounded by the block, not the file.  Each
    line must hold exactly three tab-separated fields (blank lines are
    skipped; ``\\r\\n`` and a missing final newline are accepted);
    fields are split for the whole block at once.  A malformed line
    raises :class:`KeyError_` naming ``file:line`` — after the
    well-formed lines before it have been yielded, exactly as a
    line-by-line reader would.  ``value_parser`` as in
    :func:`read_tsv_triples`.
    """
    parse = value_parser or _parse_scalar
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        consumed = 0  # lines before the current block
        tail = ""
        while True:
            text = fh.read(TSV_CHUNK_CHARS)
            if not text:
                break
            lines = (tail + text).split("\n")
            tail = lines.pop()  # partial line: completed by the next read
            yield from _split_block(p, lines, consumed, parse)
            consumed += len(lines)
        if tail:
            yield from _split_block(p, [tail], consumed, parse)


def _split_block(p: Path, lines: List[str], consumed: int,
                 parse) -> Iterator[TsvBlock]:
    tabs = list(map(str.count, lines, repeat("\t")))
    bad = None
    if tabs.count(2) != len(lines):
        bad = next((i for i, (line, n) in enumerate(zip(lines, tabs))
                    if n != 2 and line), None)
        lines = [line for line, n in zip(lines[:bad], tabs) if n == 2]
    if lines:
        fields = "\t".join(lines).split("\t")
        texts = fields[2::3]
        if parse is _parse_scalar:
            try:
                vals = list(map(int, texts))
            except ValueError:
                vals = list(map(_parse_scalar, texts))
        else:
            vals = list(map(parse, texts))
        yield TsvBlock(lines, fields[0::3], fields[1::3], texts, vals)
    if bad is not None:
        raise KeyError_(
            f"{p}:{consumed + bad + 1}: expected 3 tab-separated fields, "
            f"got {tabs[bad] + 1}")


def read_tsv_columns(
    path: Union[str, Path],
    *,
    value_parser=None,
) -> Tuple[List[str], List[str], List[Any]]:
    """The whole file as ``(rows, cols, values)`` columns (the
    concatenated blocks of :func:`iter_tsv_blocks`)."""
    rows: List[str] = []
    cols: List[str] = []
    vals: List[Any] = []
    for block in iter_tsv_blocks(path, value_parser=value_parser):
        rows += block.rows
        cols += block.cols
        vals += block.vals
    return rows, cols, vals


def iter_tsv_triples(
    path: Union[str, Path],
    *,
    value_parser=None,
) -> Iterator[Tuple[str, str, Any]]:
    """Stream ``row<TAB>col<TAB>value`` lines as ``(row, col, value)``.

    Reads through :func:`iter_tsv_blocks`, so memory stays bounded by
    one block however large the file.  ``value_parser`` as in
    :func:`read_tsv_triples`.
    """
    for block in iter_tsv_blocks(path, value_parser=value_parser):
        yield from zip(block.rows, block.cols, block.vals)


def read_tsv_triples(
    path: Union[str, Path],
    *,
    value_parser=None,
    zero: Any = 0,
    row_keys: Optional[Iterable[Any]] = None,
    col_keys: Optional[Iterable[Any]] = None,
    backend: str = "auto",
) -> AssociativeArray:
    """Read ``row<TAB>col<TAB>value`` lines into an associative array.

    ``value_parser`` converts the value text (default: int if possible,
    else float if possible, else the raw string).  ``backend`` selects
    the storage backend (``"numeric"`` compiles the columnar form
    eagerly at ingest; see :class:`AssociativeArray`).  The array is
    built column-wise (:meth:`AssociativeArray.from_columns`).
    """
    rows, cols, vals = read_tsv_columns(path, value_parser=value_parser)
    return AssociativeArray.from_columns(
        rows, cols, vals, zero=zero, row_keys=row_keys, col_keys=col_keys,
        backend=backend)


def _parse_scalar(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def read_csv_table(
    source: Union[str, Path, _io.TextIOBase],
    *,
    row_key_column: Optional[str] = None,
    multivalue_separator: str = ";",
) -> Dict[str, Dict[str, Any]]:
    """Read a CSV file into the ``{row: {field: value(s)}}`` shape that
    :func:`explode_table` consumes.

    The first column (or ``row_key_column``) provides row keys.  Cell text
    containing ``multivalue_separator`` becomes a list of values.  Empty
    cells are omitted (they would otherwise explode into ``field|``
    columns).
    """
    close = False
    if isinstance(source, (str, Path)):
        fh: _io.TextIOBase = open(source, "r", encoding="utf-8", newline="")
        close = True
    else:
        fh = source
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise KeyError_("CSV file has no header row")
        key_col = row_key_column or reader.fieldnames[0]
        if key_col not in reader.fieldnames:
            raise KeyError_(f"row key column {key_col!r} not in header")
        table: Dict[str, Dict[str, Any]] = {}
        for record in reader:
            row_key = record[key_col]
            fields: Dict[str, Any] = {}
            for field, cell in record.items():
                if field == key_col or cell is None or cell == "":
                    continue
                if multivalue_separator in cell:
                    fields[field] = [p.strip()
                                     for p in cell.split(multivalue_separator)
                                     if p.strip()]
                else:
                    fields[field] = cell.strip()
            table[row_key] = fields
        return table
    finally:
        if close:
            fh.close()
