"""Array-written JSON bodies ≡ ``json.dumps(jsonable(doc))``, property-based.

k-hop frontiers and path lengths come back from the kernels as
:class:`~repro.graphs.algorithms.VertexValues` — position and value
arrays over the snapshot's key set — and the HTTP layer writes them
into the response body without building a dict
(:class:`repro.serve.http.BodyEncoder`).  Clients must not see the
difference: for every key domain (strings with quotes, backslashes,
control and non-ASCII characters; ints, floats, tuples) and every
float (±∞, NaN, ``-0.0``, subnormals, integers past 2⁵³) the bytes
equal what ``json.dumps(jsonable(doc))`` gives for the same answer as
a plain dict.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.associative import AssociativeArray
from repro.arrays.keys import KeySet
from repro.graphs.algorithms import VertexValues
from repro.serve import AdjacencyService
from repro.serve.http import BodyEncoder, jsonable
from repro.values.semiring import get_op_pair

COMMON = dict(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])

_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f",
                            "é", "中", " ", "\ud800", "😀", "/", " "])
_TEXT = st.text(alphabet=st.one_of(_AWKWARD, st.characters()), max_size=6)

KEY_DOMAINS = st.one_of(
    st.lists(_TEXT, max_size=12),
    st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=12),
    st.lists(st.floats(allow_nan=False), max_size=12),
    st.lists(st.one_of(st.integers(-50, 50),
                       st.floats(-1e20, 1e20, allow_nan=False)),
             max_size=12),
    st.lists(st.tuples(st.integers(-5, 5), _TEXT), max_size=12),
)

VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                     -5e-324, 0.1, 1e16, 1e-7, 2.0 ** 53,
                     1.7976931348623157e308, 1.0, 6.0, 1 / 3]),
    st.floats(),
    st.integers(2 ** 53, 2 ** 80).map(float),
)


@st.composite
def answers(draw, keys=KEY_DOMAINS):
    """A ``VertexValues`` over a drawn key set, and the plain dict it
    stands for (built without the class, as the kernels used to)."""
    keyset = KeySet(draw(keys))
    n = len(keyset)
    positions = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)),
                                    max_size=n))) if n else []
    data = draw(st.lists(VALUES, min_size=len(positions),
                         max_size=len(positions)))
    answer = VertexValues(np.array(positions, dtype=np.int64),
                          np.array(data, dtype=np.float64), keyset)
    plain = {keyset[p]: float(np.float64(v))
             for p, v in zip(positions, data)}
    return answer, plain


def _doc(result, epoch=3, cached=False, kind="khop"):
    return {"epoch": epoch, "kind": kind, "cached": cached,
            "result": result}


@settings(**COMMON)
@given(case=answers(), epoch=st.integers(0, 2 ** 40), cached=st.booleans())
def test_array_written_body_is_byte_identical(case, epoch, cached):
    answer, plain = case
    want = json.dumps(jsonable(_doc(plain, epoch, cached))).encode("utf-8")
    encoder = BodyEncoder()
    assert encoder.encode(_doc(answer, epoch, cached)) == want
    # Twice: the second body reuses the key set's cached fragments.
    assert encoder.encode(_doc(answer, epoch, cached)) == want


@settings(**COMMON)
@given(case=answers())
def test_answer_is_the_mapping_it_stands_for(case):
    answer, plain = case
    # NaN != NaN, so compare the items the NaN-free way round too.
    finite = {k: v for k, v in plain.items() if not math.isnan(v)}
    nan_free = VertexValues(
        answer.positions[~np.isnan(answer.data)],
        answer.data[~np.isnan(answer.data)], answer.keyset)
    assert nan_free == finite and finite == nan_free
    assert len(answer) == len(plain)
    assert list(answer) == list(plain)
    assert repr(nan_free) == repr(finite)
    if finite:
        assert nan_free != {**finite, next(iter(finite)): "other"}


@functools.total_ordering
class _Label:
    """A vertex key ordered by ``rank`` whose text may repeat."""

    def __init__(self, rank: int, text: str) -> None:
        self.rank, self.text = rank, text

    def __eq__(self, other):
        return self.rank == other.rank

    def __lt__(self, other):
        return self.rank < other.rank

    def __hash__(self):
        return hash(self.rank)

    def __str__(self):
        return self.text


def test_keys_that_stringify_alike_fall_back_to_the_dict_body():
    keyset = KeySet([_Label(0, "x"), _Label(1, "x"), _Label(2, "y")])
    answer = VertexValues(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]),
                          keyset)
    plain = dict(zip(keyset, [1.0, 2.0, 3.0]))
    want = json.dumps(jsonable(_doc(plain))).encode("utf-8")
    assert BodyEncoder().encode(_doc(answer)) == want == \
        b'{"epoch": 3, "kind": "khop", "cached": false, ' \
        b'"result": {"x": 2.0, "y": 3.0}}'


def test_other_documents_encode_as_before():
    for doc in ({"status": "ok", "epoch": 1}, {"result": {1: math.inf}},
                [1.5, (2, -math.inf)], {"result": {}}):
        assert BodyEncoder().encode(doc) == \
            json.dumps(jsonable(doc)).encode("utf-8")


def test_served_answers_refuse_writes_and_are_shared_from_the_cache():
    pair = get_op_pair("plus_times")
    arr = AssociativeArray({("a", "b"): 2.0, ("b", "c"): 3.0,
                            ("a", "c"): 1.5, ("d", "a"): 1.0}
                           ).with_backend("numeric")
    svc = AdjacencyService(pair, initial=arr)
    cold = svc.query("khop", vertex="a", k=1)
    warm = svc.query("khop", vertex="a", k=1)
    assert not cold["cached"] and warm["cached"]
    answer = warm["result"]
    assert isinstance(answer, VertexValues) and answer is cold["result"]
    for array in (answer.positions, answer.data):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7
    lengths = svc.path_lengths("a")
    assert isinstance(lengths, VertexValues)
    with pytest.raises(ValueError):
        lengths.data[0] = -1.0
    assert answer == {"b": 2.0, "c": 1.5} == answer
    assert lengths == {"a": 0.0, "b": 2.0, "c": 1.5}
