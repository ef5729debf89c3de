"""Array-carried ``x ⊕.⊗ A`` ≡ the per-edge reference loop, property-based.

Every numeric vector–matrix product in :mod:`repro.graphs.algorithms`
runs through one kernel that carries ``(index, value)`` arrays between
hops, pushing sparse frontiers over CSR rows and pulling dense ones
through the CSC view.  The dict-backed adjacency (pinned to
``backend="dict"``) takes the per-edge reference loop instead, so
running the same query on both backends — with the kernel pinned to
each direction — checks its fold order and zero elision against the
reference: k-hop frontiers for ``k = 0..3`` over every certified
numeric op-pair, and the ``min.+`` / ``max.min`` relaxations — also on
non-integral weights, where the numeric relaxation, which pushes only
the vertices that improved in the round before, must reach the same
floats as the reference, which pushes every reached vertex each round.
BFS levels over the CSR view are checked against the dict loop the
same way, with and without ``max_levels``.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.associative import AssociativeArray
from repro.graphs import algorithms
from repro.graphs.algorithms import (
    bfs_levels,
    khop_frontier,
    semiring_vecmat,
    shortest_path_lengths,
    widest_path_widths,
)
from repro.values.semiring import get_op_pair

from tests.helpers import SAFE_NUMERIC_PAIRS

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def square_adjacency(draw, zero: float, max_dim: int = 9,
                     weights=st.integers(1, 9)):
    """A square array over ``v0..v{n-1}`` with values drawn from
    ``weights`` (default 1..9), and a source vertex."""
    n = draw(st.integers(1, max_dim))
    verts = [f"v{i}" for i in range(n)]
    entries = draw(st.dictionaries(
        st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
        weights, max_size=n * n))
    adj = AssociativeArray({rc: float(v) for rc, v in entries.items()},
                           row_keys=verts, col_keys=verts, zero=zero)
    return adj, draw(st.sampled_from(verts))


@contextmanager
def _direction(push_fraction: int):
    """Pin the kernel's push/pull switch: 0 always pushes, a huge
    fraction always pulls."""
    saved = algorithms.PUSH_FRACTION
    algorithms.PUSH_FRACTION = push_fraction
    try:
        yield
    finally:
        algorithms.PUSH_FRACTION = saved


DIRECTIONS = (0, 10 ** 9)


def _make_khop_test(name: str):
    pair = get_op_pair(name)

    @settings(max_examples=30, **COMMON)
    @given(case=square_adjacency(zero=float(pair.zero)))
    def _test(case):
        adj, source = case
        reference = adj.with_backend("dict")
        for fraction in DIRECTIONS:
            numeric = adj.with_backend("numeric")
            looped = {source: pair.one}
            for k in range(4):
                with _direction(fraction):
                    fast = khop_frontier(numeric, source, k, pair)
                assert fast == khop_frontier(reference, source, k, pair), k
                assert fast == looped, k
                looped = semiring_vecmat(looped, reference, pair)

    _test.__name__ = f"test_khop_frontier_{name}"
    return _test


for _name in SAFE_NUMERIC_PAIRS:
    globals()[f"test_khop_frontier_{_name}"] = _make_khop_test(_name)
del _name


@settings(max_examples=40, **COMMON)
@given(case=square_adjacency(zero=float(get_op_pair("min_plus").zero)))
def test_shortest_path_lengths_matches_reference(case):
    adj, source = case
    want = shortest_path_lengths(adj.with_backend("dict"), source)
    for fraction in DIRECTIONS:
        with _direction(fraction):
            got = shortest_path_lengths(adj.with_backend("numeric"), source)
        assert got == want


@settings(max_examples=40, **COMMON)
@given(case=square_adjacency(zero=float(get_op_pair("max_min").zero)))
def test_widest_path_widths_matches_reference(case):
    adj, source = case
    want = widest_path_widths(adj.with_backend("dict"), source)
    for fraction in DIRECTIONS:
        with _direction(fraction):
            got = widest_path_widths(adj.with_backend("numeric"), source)
        assert got == want


#: Sevenths: sums of them round differently depending on the order they
#: are added in, so a relaxation that settled a vertex through another
#: path (or stopped a round early) shows up as an unequal float.
FRACTIONAL = st.integers(1, 60).map(lambda w: w / 7)


@settings(max_examples=60, **COMMON)
@given(case=square_adjacency(zero=float(get_op_pair("min_plus").zero),
                             max_dim=12, weights=FRACTIONAL))
def test_shortest_path_lengths_fractional_weights(case):
    adj, source = case
    want = shortest_path_lengths(adj.with_backend("dict"), source)
    for fraction in DIRECTIONS:
        with _direction(fraction):
            got = shortest_path_lengths(adj.with_backend("numeric"), source)
        assert got == want and want == got
        assert list(got) == [v for v in adj.row_keys if v in want]


@settings(max_examples=60, **COMMON)
@given(case=square_adjacency(zero=float(get_op_pair("max_min").zero),
                             max_dim=12, weights=FRACTIONAL))
def test_widest_path_widths_fractional_weights(case):
    adj, source = case
    want = widest_path_widths(adj.with_backend("dict"), source)
    for fraction in DIRECTIONS:
        with _direction(fraction):
            got = widest_path_widths(adj.with_backend("numeric"), source)
        assert got == want and want == got


@settings(max_examples=60, **COMMON)
@given(case=square_adjacency(zero=0.0, max_dim=12),
       max_levels=st.one_of(st.none(), st.integers(0, 4)))
def test_bfs_levels_csr_matches_dict_loop(case, max_levels):
    adj, source = case
    want = bfs_levels(adj.with_backend("dict"), source,
                      max_levels=max_levels)
    got = bfs_levels(adj.with_backend("numeric"), source,
                     max_levels=max_levels)
    assert got == want
    assert list(got.values()) == sorted(got.values())
