"""Unit tests for the pluggable storage backends (repro.arrays.backend)."""

from __future__ import annotations

import math
import pickle

import pytest

from repro.arrays.associative import AssociativeArray
from repro.arrays.backend import NumericBackend, VECTORIZE_MIN_NNZ
from repro.arrays.io import read_tsv_triples, write_tsv_triples
from repro.arrays.keys import KeyError_
from repro.arrays.matmul import multiply
from repro.values.semiring import get_op_pair


def _numeric_array():
    data = {("r0", "c0"): 1.0, ("r0", "c2"): 2.0, ("r2", "c1"): 3.0}
    return AssociativeArray(data, row_keys=["r0", "r1", "r2"],
                            col_keys=["c0", "c1", "c2"])


class TestBackendChoice:
    def test_default_is_dict(self):
        assert _numeric_array().backend == "dict"

    def test_explicit_numeric(self):
        a = _numeric_array().with_backend("numeric")
        assert a.backend == "numeric"
        assert a == _numeric_array()

    def test_constructor_backend_kwarg(self):
        a = AssociativeArray({("r", "c"): 2}, backend="numeric")
        assert a.backend == "numeric"
        assert a["r", "c"] == 2

    def test_numeric_refuses_exotic_values(self):
        with pytest.raises(KeyError_):
            AssociativeArray({("r", "c"): "text"}, backend="numeric")

    def test_numeric_refuses_nan_zero(self):
        with pytest.raises(KeyError_):
            AssociativeArray({("r", "c"): 1.0}, zero=float("nan"),
                             backend="numeric")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError_):
            AssociativeArray({}, backend="csr")
        with pytest.raises(KeyError_):
            _numeric_array().with_backend("csr")

    def test_pinned_dict_never_promotes(self):
        a = _numeric_array().with_backend("dict")
        assert a.numeric_backend() is None

    def test_auto_lifts_pin(self):
        a = _numeric_array().with_backend("dict").with_backend("auto")
        assert a.numeric_backend() is not None

    def test_promotion_is_cached(self):
        a = _numeric_array()
        assert a.numeric_backend() is a.numeric_backend()
        assert a.backend == "dict"          # promotion does not rebind

    def test_exotic_values_do_not_promote(self):
        a = AssociativeArray({("r", "c"): frozenset({"x"})},
                             zero=frozenset())
        assert a.numeric_backend() is None

    def test_zero_filtering_matches_dict_semantics(self):
        data = {("r", "a"): 0.0, ("r", "b"): 1.0}
        eager = AssociativeArray(data, backend="numeric",
                                 col_keys=["a", "b"])
        lazy = AssociativeArray(data, col_keys=["a", "b"])
        assert eager.nnz == lazy.nnz == 1
        assert eager == lazy


class TestPersistence:
    def test_csr_view_is_cached(self):
        a = _numeric_array().with_backend("numeric")
        nb = a.numeric_backend()
        assert nb.csr() is nb.csr()

    def test_transpose_inherits_compiled_form(self):
        a = _numeric_array().with_backend("numeric")
        t = a.transpose()
        assert t.backend == "numeric"
        # The CSC of A *is* the CSR of Aᵀ — seeded, not rebuilt.
        assert t.numeric_backend()._csr is not None
        assert t.transpose() == _numeric_array()

    def test_matmul_result_is_numeric_backed(self):
        pair = get_op_pair("plus_times")
        a = _numeric_array().with_backend("numeric")
        c = multiply(a.transpose(), a, pair)
        assert c.backend == "numeric"

    def test_pickle_round_trip_drops_derived_views(self):
        a = _numeric_array().with_backend("numeric")
        a.numeric_backend().csr()           # populate the memo
        back = pickle.loads(pickle.dumps(a))
        assert back == a
        assert back.backend == "numeric"
        assert back.numeric_backend()._csr is None

    def test_pickle_round_trip_drops_csc_column_index(self):
        nb = _numeric_array().with_backend("numeric").numeric_backend()
        nb.csc_cols()
        back = pickle.loads(pickle.dumps(nb))
        assert back._csc is None and back._csc_cols is None
        assert back.csc_cols().tolist() == nb.csc_cols().tolist()

    def test_pickle_round_trip_dict_pinned(self):
        a = _numeric_array().with_backend("dict")
        back = pickle.loads(pickle.dumps(a))
        assert back == a
        assert back.numeric_backend() is None


class TestNumericStructuralOps:
    def test_entries_in_key_order(self):
        a = _numeric_array().with_backend("numeric")
        assert a.triples() == _numeric_array().triples()

    def test_select_and_getitem(self):
        a = _numeric_array().with_backend("numeric")
        sub = a["r0", ":"]
        assert sub.backend == "numeric"
        assert sub == _numeric_array()["r0", ":"]

    def test_with_keys_superset_embedding(self):
        a = _numeric_array().with_backend("numeric")
        wide = a.with_keys(["r0", "r1", "r2", "r3"], None)
        assert wide.backend == "numeric"
        assert wide["r0", "c2"] == 2.0
        assert len(wide.row_keys) == 4

    def test_with_keys_rejects_dropping_stored_rows(self):
        a = _numeric_array().with_backend("numeric")
        with pytest.raises(KeyError_, match="row key"):
            a.with_keys(["r0", "r1"], None)
        with pytest.raises(KeyError_, match="column key"):
            a.with_keys(None, ["c0", "c1"])

    def test_rows_cols_nonempty(self):
        a = _numeric_array().with_backend("numeric")
        assert list(a.rows_nonempty()) == ["r0", "r2"]
        assert list(a.cols_nonempty()) == ["c0", "c1", "c2"]

    def test_csc_column_index_is_cols_in_csc_order(self):
        nb = _numeric_array().with_backend("numeric").numeric_backend()
        data, rows, indptr, perm = nb.csc()
        cols = nb.csc_cols()
        assert cols.tolist() == nb.cols[perm].tolist() == [0, 1, 2]
        assert nb.csc_cols() is cols          # cached beside the view
        assert nb.csc() == (data, rows, indptr, perm)
        assert nb.transposed().rows.tolist() == cols.tolist()

    def test_infinity_zero_round_trip(self):
        a = AssociativeArray({("r", "c"): 3.0}, zero=-math.inf,
                             backend="numeric")
        assert a.transpose()["c", "r"] == 3.0
        assert a.transpose().zero == -math.inf


class TestIoBackend:
    def test_tsv_round_trip_numeric(self, tmp_path):
        a = _numeric_array().with_backend("numeric")
        path = tmp_path / "a.tsv"
        write_tsv_triples(a, path)
        back = read_tsv_triples(path, row_keys=a.row_keys,
                                col_keys=a.col_keys, backend="numeric")
        assert back.backend == "numeric"
        assert back == a

    def test_tsv_bytes_identical_across_backends(self, tmp_path):
        a = _numeric_array()
        p1 = tmp_path / "dict.tsv"
        p2 = tmp_path / "numeric.tsv"
        write_tsv_triples(a.with_backend("dict"), p1)
        write_tsv_triples(a.with_backend("numeric"), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFastPathGating:
    def test_small_dict_arrays_stay_generic_typed(self):
        # Paper-figure-sized int arrays keep exact Python int values.
        pair = get_op_pair("plus_times")
        a = AssociativeArray({("r", "k"): 2}, row_keys=["r"], col_keys=["k"])
        b = AssociativeArray({("k", "c"): 3}, row_keys=["k"], col_keys=["c"])
        c = multiply(a, b, pair)
        assert isinstance(c["r", "c"], int)

    def test_large_arrays_promote(self):
        pair = get_op_pair("plus_times")
        n = VECTORIZE_MIN_NNZ
        rows = [f"r{i:04d}" for i in range(n)]
        a = AssociativeArray({(r, "k"): 1.0 for r in rows},
                             row_keys=rows, col_keys=["k"])
        b = AssociativeArray({("k", r): 1.0 for r in rows},
                             row_keys=["k"], col_keys=rows)
        c = multiply(a, b, pair)
        assert c.backend == "numeric"
        assert c.nnz == n * n

    def test_pinned_operands_force_generic_results(self):
        pair = get_op_pair("plus_times")
        n = VECTORIZE_MIN_NNZ
        rows = [f"r{i:04d}" for i in range(n)]
        a = AssociativeArray({(r, "k"): 1.0 for r in rows},
                             row_keys=rows, col_keys=["k"], backend="dict")
        c = multiply(a, a.transpose().with_backend("dict"), pair)
        assert c.backend == "dict"

    def test_pin_survives_merge_tree(self):
        # backend="dict" must force the generic paths *end to end*:
        # derived arrays (and merge intermediates) inherit the pin, so
        # int values are preserved through every ⊕-merge level.
        from repro.shard.merge import merge_adjacency
        pair = get_op_pair("plus_times")
        n = VECTORIZE_MIN_NNZ
        shards = []
        for s in range(4):
            rows = [f"r{i:04d}" for i in range(s, n + s)]
            shards.append(AssociativeArray(
                {(r, "c"): 1 for r in rows}, row_keys=rows,
                col_keys=["c"], backend="dict"))
        merged = merge_adjacency(shards, pair)
        assert merged.backend == "dict" and merged.pinned
        assert all(isinstance(v, int) for v in merged.values_list())

    def test_derived_arrays_inherit_pin(self):
        a = _numeric_array().with_backend("dict")
        assert a.transpose().pinned
        assert a.select(":", ":").pinned
        assert a.with_keys(["r0", "r1", "r2", "r3"], None).pinned
        assert a.map_values(lambda v: v + 1).pinned
        assert not _numeric_array().transpose().pinned

    def test_huge_ints_never_promote(self):
        # Integers beyond 2**53 lose exactness under float64; such
        # arrays must stay on the (arbitrary-precision) dict path even
        # past the promotion threshold.
        big = 2 ** 53 + 1
        rows = [f"r{i:04d}" for i in range(VECTORIZE_MIN_NNZ)]
        data = {(r, "c"): 1 for r in rows}
        data[(rows[0], "c")] = big
        a = AssociativeArray(data, row_keys=rows, col_keys=["c"])
        b = AssociativeArray({(r, "c"): 1 for r in rows},
                             row_keys=rows, col_keys=["c"])
        assert a.numeric_backend() is None
        summed = a.add(b, get_op_pair("plus_times").add)
        assert summed[rows[0], "c"] == big + 1     # exact, not rounded
        with pytest.raises(KeyError_):
            a.with_backend("numeric")


class TestFoldIdentitySeeding:
    def test_reductions_seed_the_identity_fold(self):
        # The generic fold starts at the identity, which is visible when
        # stored values fall outside the identity's neutral range —
        # max0 (identity 0) over negative entries.  Dict ≡ Numeric must
        # hold there too.
        from repro.arrays.reductions import (
            reduce_cols, reduce_rows, total_reduce)
        from repro.values.operations import get_operation
        op = get_operation("max0")
        n = VECTORIZE_MIN_NNZ + 8
        rows = [f"r{i:04d}" for i in range(n)]
        a = AssociativeArray({(r, "c"): -1.0 - i for i, r in enumerate(rows)},
                             row_keys=rows, col_keys=["c"], zero=-math.inf)
        ad = a.with_backend("dict")
        assert a.numeric_backend() is not None
        assert reduce_rows(a, op) == reduce_rows(ad, op)
        assert reduce_cols(a, op) == reduce_cols(ad, op)
        assert total_reduce(a, op) == total_reduce(ad, op) == 0


class TestEmptyOperands:
    def test_dense_blocked_empty_row_keys(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray({}, row_keys=[], col_keys=["k1", "k2"],
                             zero=0.0, backend="numeric")
        b = AssociativeArray({("k1", "c"): 1.0}, row_keys=["k1", "k2"],
                             col_keys=["c"], backend="numeric")
        out = multiply(a, b, pair, mode="dense")
        assert out.shape == (0, 1) and out.nnz == 0

    def test_tiny_dict_operands_do_not_promote(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray({("r", "k"): 2}, row_keys=["r"], col_keys=["k"])
        b = AssociativeArray({("k", "c"): 3}, row_keys=["k"], col_keys=["c"])
        multiply(a, b, pair)
        # Kernel selection must not have paid the columnar conversion.
        assert "numeric_backend" not in a._cache
        assert "numeric_backend" not in b._cache


class TestFromScipy:
    def test_duplicate_coo_coordinates_are_summed(self):
        sp = pytest.importorskip("scipy.sparse")
        from repro.arrays.sparse_backend import from_scipy
        m = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
        a = from_scipy(m, ["r0", "r1"], ["c0", "c1"])
        assert a.nnz == 1
        assert a["r0", "c1"] == 3.0
        assert a.triples() == [("r0", "c1", 3.0)]


# ---------------------------------------------------------------------------
# The sorted coordinate union behind union_apply
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arrays.backend import sorted_union, union_apply  # noqa: E402


def _sorted_run(values):
    import numpy as np
    return np.array(sorted(set(values)), dtype=np.int64)


_RUNS = st.lists(st.integers(-2**40, 2**40), max_size=60).map(_sorted_run)


class TestSortedUnion:
    @settings(max_examples=200, deadline=None)
    @given(a=_RUNS, b=_RUNS, shape=st.sampled_from(
        ["general", "empty", "disjoint", "identical", "one_sided"]))
    def test_equals_union1d(self, a, b, shape):
        import numpy as np
        if shape == "empty":
            a = b = a[:0]
        elif shape == "disjoint":
            b = b[~np.isin(b, a)]
        elif shape == "identical":
            b = a.copy()
        elif shape == "one_sided":
            b = b[:0]
        for x, y in ((a, b), (b, a)):
            got = sorted_union(x, y)
            want = np.union1d(x, y)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_union_apply_matches_union1d_pattern(self):
        import numpy as np
        a = NumericBackend(np.array([0, 0, 2]), np.array([1, 3, 0]),
                           np.array([1.0, 2.0, 3.0]), (3, 4))
        b = NumericBackend(np.array([0, 1, 2]), np.array([3, 1, 0]),
                           np.array([5.0, 6.0, -3.0]), (3, 4))
        rows, cols, vals = union_apply(a, b, np.add, 0.0, 0.0, 0.0, (3, 4))
        # (2, 0) sums to the zero and is dropped.
        assert rows.tolist() == [0, 0, 1]
        assert cols.tolist() == [1, 3, 1]
        assert vals.tolist() == [1.0, 7.0, 6.0]
