"""Edge-source adapters: everything becomes a stream of edge records.

The partitioner consumes one shape — :class:`EdgeRecord`, an edge key
with its out-incidence and in-incidence entries — produced lazily from
any of the supported sources:

* an :class:`~repro.graphs.digraph.EdgeKeyedDigraph` (with optional
  weight specs, as :func:`repro.graphs.incidence.incidence_arrays`
  takes them);
* an iterable of ``(key, src, dst)`` or ``(key, src, dst, w_out, w_in)``
  tuples — the :class:`~repro.core.streaming.StreamingAdjacencyBuilder`
  wire shape;
* a pair of incidence :class:`~repro.arrays.associative.AssociativeArray`
  objects sharing their edge-key rows (hyperedge rows supported).

TSV-file pairs are *not* routed through records: they are read in
bounded chunks directly by :func:`repro.shard.partition.partition_tsv_pair`,
which never groups a file's entries in memory.

Records carry hyperedges naturally: an edge key may touch several
out-vertices and several in-vertices (the paper's generalized incidence
arrays, e.g. the music tracks of Figure 2).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.arrays.associative import AssociativeArray
from repro.graphs.digraph import EdgeKeyedDigraph, GraphError
from repro.graphs.incidence import ValueSpec, _resolve_value
from repro.shard.manifest import ShardError

__all__ = ["EdgeRecord", "edge_records"]


class EdgeRecord(NamedTuple):
    """One edge key with its incidence entries on both sides.

    ``out_entries``/``in_entries`` are ``(vertex, value)`` tuples; either
    side may hold several entries (hyperedges) but not zero-valued ones
    (Definition I.4 — a zero incidence entry would erase the edge).
    """

    key: Any
    out_entries: Tuple[Tuple[Any, Any], ...]
    in_entries: Tuple[Tuple[Any, Any], ...]


def edge_records(
    source: Any,
    *,
    zero: Any = 0,
    one: Any = 1,
    out_values: ValueSpec = None,
    in_values: ValueSpec = None,
) -> Iterator[EdgeRecord]:
    """Normalize ``source`` into a lazy stream of :class:`EdgeRecord`.

    ``zero`` is the op-pair zero used to validate incidence values;
    ``one`` the default stored value; ``out_values``/``in_values`` apply
    to graph sources only (constant, mapping, or callable — see
    :func:`repro.graphs.incidence.incidence_arrays`).
    """
    if isinstance(source, EdgeKeyedDigraph):
        return _records_from_graph(source, zero=zero, one=one,
                                   out_values=out_values,
                                   in_values=in_values)
    if _is_array_pair(source):
        eout, ein = source
        return _records_from_arrays(eout, ein)
    if isinstance(source, (str, bytes)) or not _iterable(source):
        raise ShardError(
            f"unsupported edge source {type(source).__name__}; expected an "
            "EdgeKeyedDigraph, an (Eout, Ein) array pair, or an iterable "
            "of (key, src, dst[, w_out, w_in]) tuples")
    return _records_from_tuples(source, zero=zero, one=one)


def _iterable(obj: Any) -> bool:
    try:
        iter(obj)
        return True
    except TypeError:
        return False


def _is_array_pair(source: Any) -> bool:
    return (isinstance(source, (tuple, list)) and len(source) == 2
            and all(isinstance(x, AssociativeArray) for x in source))


def _records_from_graph(
    graph: EdgeKeyedDigraph,
    *,
    zero: Any,
    one: Any,
    out_values: ValueSpec,
    in_values: ValueSpec,
) -> Iterator[EdgeRecord]:
    for key, src, dst in graph.edges():
        ov = _resolve_value(out_values, key, src, one)
        iv = _resolve_value(in_values, key, dst, one)
        if ov == zero:
            raise GraphError(
                f"out-value for edge {key!r} equals the zero {zero!r}")
        if iv == zero:
            raise GraphError(
                f"in-value for edge {key!r} equals the zero {zero!r}")
        yield EdgeRecord(key, ((src, ov),), ((dst, iv),))


def _records_from_tuples(
    tuples: Iterable[Tuple[Any, ...]],
    *,
    zero: Any,
    one: Any,
) -> Iterator[EdgeRecord]:
    for item in tuples:
        if len(item) == 3:
            key, src, dst = item
            ov = iv = one
        elif len(item) == 5:
            key, src, dst, ov, iv = item
        else:
            raise GraphError(
                f"expected 3- or 5-tuples, got {len(item)}-tuple")
        if ov == zero or iv == zero:
            raise GraphError(
                f"incidence values for edge {key!r} must be nonzero")
        yield EdgeRecord(key, ((src, ov),), ((dst, iv),))


def _records_from_arrays(
    eout: AssociativeArray,
    ein: AssociativeArray,
) -> Iterator[EdgeRecord]:
    if eout.row_keys != ein.row_keys:
        raise ShardError(
            "Eout and Ein must share the edge key set K as rows; re-embed "
            "with with_keys() over the union first")
    out_rows: Dict[Any, List[Tuple[Any, Any]]] = {}
    in_rows: Dict[Any, List[Tuple[Any, Any]]] = {}
    for k, a, v in eout.entries():
        out_rows.setdefault(k, []).append((a, v))
    for k, b, v in ein.entries():
        in_rows.setdefault(k, []).append((b, v))
    for k in eout.row_keys:
        outs = tuple(out_rows.get(k, ()))
        ins = tuple(in_rows.get(k, ()))
        if not outs and not ins:
            continue  # a fully empty edge row contributes nothing
        yield EdgeRecord(k, outs, ins)
