"""Array-carried ``x ⊕.⊗ A`` ≡ the per-edge reference loop, property-based.

Every numeric vector–matrix product in :mod:`repro.graphs.algorithms`
runs through one kernel that carries ``(index, value)`` arrays between
hops, pushing sparse frontiers over CSR rows and pulling dense ones
through the CSC view.  The dict-backed adjacency (pinned to
``backend="dict"``) takes the per-edge reference loop instead, so
running the same query on both backends — with the kernel pinned to
each direction — checks its fold order and zero elision against the
reference: k-hop frontiers for ``k = 0..3`` over every certified
numeric op-pair, and the ``min.+`` / ``max.min`` relaxations.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.associative import AssociativeArray
from repro.graphs import algorithms
from repro.graphs.algorithms import (
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
def square_adjacency(draw, zero: float, max_dim: int = 9):
    """A square array over ``v0..v{n-1}`` with values in 1..9, and a
    source vertex."""
    n = draw(st.integers(1, max_dim))
    verts = [f"v{i}" for i in range(n)]
    entries = draw(st.dictionaries(
        st.tuples(st.sampled_from(verts), st.sampled_from(verts)),
        st.integers(1, 9), max_size=n * n))
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
