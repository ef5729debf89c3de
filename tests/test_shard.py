"""Tests for the out-of-core sharded construction engine (repro.shard)."""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.arrays import io as io_mod
from repro.arrays.associative import AssociativeArray
from repro.arrays.io import read_tsv_triples, write_tsv_triples
from repro.arrays.keys import KeyError_
from repro.cli import build_parser, main
from repro.core.construction import adjacency_array
from repro.graphs.digraph import EdgeKeyedDigraph, GraphError
from repro.graphs.generators import erdos_renyi_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.shard import (
    EdgeRecord,
    ShardAssigner,
    ShardedAdjacencyPlan,
    ShardError,
    ShardManifest,
    check_merge_safety,
    edge_records,
    execute_shards,
    load_shard,
    merge_adjacency,
    merge_spilled,
    oplus_union,
    partition_edge_records,
    partition_tsv_pair,
    sharded_adjacency,
)
from repro.values.semiring import get_op_pair


def _weighted_operands(pair_name="plus_times", n_vertices=12, n_edges=60,
                       seed=5):
    """A graph plus integer-valued incidence arrays (exact under any
    ⊕-fold order, so equality checks can be bit-identical)."""
    pair = get_op_pair(pair_name)
    graph = erdos_renyi_multigraph(n_vertices, n_edges, seed=seed)
    weights = {k: float(1 + (i % 7))
               for i, k in enumerate(graph.edge_keys)}
    eout, ein = incidence_arrays(graph, zero=pair.zero,
                                 out_values=weights, in_values=weights)
    return pair, graph, eout, ein


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _failing_open(after: int):
    """An ``open`` whose files fail with ENOSPC on write number
    ``after`` (1-based), after the earlier writes went through."""
    import builtins
    import errno

    class _Failing:
        def __init__(self, fh):
            self._fh = fh
            self._writes = 0

        def write(self, text):
            self._writes += 1
            if self._writes >= after:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self._fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()
            return False

    def _open(*args, **kwargs):
        return _Failing(builtins.open(*args, **kwargs))
    return _open


class TestManifest:
    def _build(self, tmp_path, **kwargs):
        records = edge_records([("e1", "a", "b"), ("e2", "b", "c")])
        return partition_edge_records(records, 2, tmp_path, **kwargs)

    def test_round_trip(self, tmp_path):
        manifest = self._build(tmp_path, op_pair_name="plus_times")
        loaded = ShardManifest.load(tmp_path / "manifest.json")
        assert loaded == manifest
        assert loaded.root == tmp_path
        assert loaded.op_pair == "plus_times"
        assert loaded.n_shards == 2
        assert loaded.n_edges == 2

    def test_load_from_directory(self, tmp_path):
        manifest = self._build(tmp_path)
        assert ShardManifest.load(tmp_path) == manifest

    def test_failed_save_keeps_previous_manifest(self, tmp_path,
                                                 monkeypatch):
        manifest = self._build(tmp_path, op_pair_name="plus_times")
        before = (tmp_path / "manifest.json").read_bytes()
        changed = ShardManifest(format=manifest.format,
                                strategy=manifest.strategy, n_edges=99,
                                shards=manifest.shards, root=tmp_path)
        monkeypatch.setattr(io_mod, "open", _failing_open(after=1),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            changed.save()
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="no manifest"):
            ShardManifest.load(tmp_path / "manifest.json")

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("not json{")
        with pytest.raises(ShardError, match="malformed"):
            ShardManifest.load(tmp_path)

    def test_malformed_shard_record(self, tmp_path):
        self._build(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        del doc["shards"][0]["n_out_entries"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="bad shard record"):
            ShardManifest.load(tmp_path)

    def test_version_mismatch(self, tmp_path):
        self._build(tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["format_version"] = 999
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="format_version"):
            ShardManifest.load(tmp_path)

    def test_relative_paths_relocate(self, tmp_path):
        manifest = self._build(tmp_path)
        moved = tmp_path.parent / "moved-shards"
        tmp_path.rename(moved)
        loaded = ShardManifest.load(moved)
        for info in loaded.shards:
            eout_path, ein_path = loaded.shard_paths(info)
            assert eout_path.exists() and ein_path.exists()


# ---------------------------------------------------------------------------
# Assignment and partitioning
# ---------------------------------------------------------------------------

class TestAssigner:
    def test_round_robin_is_balanced_and_sticky(self):
        a = ShardAssigner(3, "round_robin")
        sids = [a.assign(f"e{i}") for i in range(9)]
        assert sids == [0, 1, 2] * 3
        assert a.assign("e0") == 0  # repeated key keeps its shard
        assert len(a) == 9

    def test_hash_is_stable_across_instances(self):
        a, b = ShardAssigner(5, "hash"), ShardAssigner(5, "hash")
        keys = [f"edge-{i}" for i in range(50)]
        assert [a.assign(k) for k in keys] == [b.assign(k) for k in keys]

    def test_invalid_parameters(self):
        with pytest.raises(ShardError, match="n_shards"):
            ShardAssigner(0)
        with pytest.raises(ShardError, match="strategy"):
            ShardAssigner(2, "modulo")


class TestPartition:
    def test_files_and_counts(self, tmp_path):
        pair, graph, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 4, tmp_path)
        assert manifest.n_edges == graph.num_edges
        assert sum(s.n_edges for s in manifest.shards) == graph.num_edges
        assert sum(s.n_out_entries for s in manifest.shards) == eout.nnz
        assert sum(s.n_in_entries for s in manifest.shards) == ein.nnz
        for info in manifest.shards:
            eout_path, ein_path = manifest.shard_paths(info)
            assert eout_path.exists() and ein_path.exists()

    def test_duplicate_edge_key_rejected(self, tmp_path):
        records = [EdgeRecord("e1", (("a", 1),), (("b", 1),))] * 2
        with pytest.raises(ShardError, match="duplicate edge key"):
            partition_edge_records(iter(records), 2, tmp_path)

    def test_tsv_format_rejects_unrepresentable_values(self, tmp_path):
        records = [EdgeRecord("e1", (("a", "has\ttab"),), (("b", 1),))]
        with pytest.raises(ShardError, match="TSV round-trip"):
            partition_edge_records(iter(records), 1, tmp_path)

    @pytest.mark.parametrize("record", [
        EdgeRecord(1, (("a", 1),), (("b", 1),)),        # int edge key
        EdgeRecord("e1", ((10, 1),), (("b", 1),)),      # int vertex
        EdgeRecord("e1", (("a", True),), (("b", 1),)),  # bool value
        EdgeRecord("e1", (("a", "3"),), (("b", 1),)),   # "3" parses as int
        EdgeRecord("k\rx", (("a", 1),), (("b", 1),)),   # CR splits on read
    ])
    def test_tsv_format_rejects_lossy_round_trips(self, tmp_path, record):
        """Text shards would silently retype these (int key → str key,
        True → "True", "3" → 3), diverging from batch construction."""
        with pytest.raises(ShardError, match="TSV round-trip"):
            partition_edge_records(iter([record]), 1, tmp_path)

    def test_pickle_format_round_trips_exotic_values(self, tmp_path):
        records = [EdgeRecord(("k", 1), ((frozenset({"a"}), True),),
                              (("b", True),))]
        manifest = partition_edge_records(
            iter(records), 1, tmp_path, shard_format="pickle")
        pair = get_op_pair("or_and")
        eout, ein = load_shard(manifest, manifest.shards[0], zero=pair.zero)
        assert eout.get(("k", 1), frozenset({"a"})) is True

    def test_tsv_pair_streaming(self, tmp_path):
        pair, graph, eout, ein = _weighted_operands()
        write_tsv_triples(eout, tmp_path / "eout.tsv")
        write_tsv_triples(ein, tmp_path / "ein.tsv")
        manifest = partition_tsv_pair(
            tmp_path / "eout.tsv", tmp_path / "ein.tsv", 3,
            tmp_path / "shards", strategy="hash", zero=pair.zero)
        assert manifest.n_edges == graph.num_edges
        assert sum(s.n_out_entries for s in manifest.shards) == eout.nnz

    def test_failed_partition_discards_partial_files(self, tmp_path):
        """A partition that dies midway removes the partial shard files
        it wrote — a user-owned outdir must not accumulate debris."""
        records = [EdgeRecord("e1", (("a", 1),), (("b", 1),)),
                   EdgeRecord("e1", (("a", 1),), (("b", 1),))]
        outdir = tmp_path / "out"
        with pytest.raises(ShardError, match="duplicate"):
            partition_edge_records(iter(records), 3, outdir)
        assert list(outdir.iterdir()) == []

    def test_tsv_pair_rejects_one_sided_edge_keys(self, tmp_path):
        """Batch construction on mismatched files raises (derived row
        key sets differ); the sharded path must refuse too, not silently
        drop the one-sided edge's contribution."""
        (tmp_path / "eout.tsv").write_text("e1\ta\t1\ne3\td\t5\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\n")
        with pytest.raises(ShardError, match="only one incidence file"):
            partition_tsv_pair(tmp_path / "eout.tsv", tmp_path / "ein.tsv",
                               2, tmp_path / "shards", zero=0)

    def test_tsv_pair_accepts_nan_values(self, tmp_path):
        """TSV-sourced entries skip the round-trip check (identity by
        construction), so NaN — which batch construction accepts but
        fails an equality check against itself — shards fine."""
        (tmp_path / "eout.tsv").write_text("e1\ta\tnan\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\n")
        manifest = partition_tsv_pair(
            tmp_path / "eout.tsv", tmp_path / "ein.tsv", 1,
            tmp_path / "shards", zero=0)
        pair = get_op_pair("plus_times")
        eout, _ein = load_shard(manifest, manifest.shards[0],
                                zero=pair.zero)
        import math
        assert math.isnan(eout["e1", "a"])

    def test_tsv_pair_rejects_zero_values(self, tmp_path):
        (tmp_path / "eout.tsv").write_text("e1\ta\t0\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\n")
        with pytest.raises(ShardError, match="equals the zero"):
            partition_tsv_pair(tmp_path / "eout.tsv", tmp_path / "ein.tsv",
                               2, tmp_path / "shards", zero=0)


class TestSources:
    def test_tuple_stream_validates_shape(self):
        with pytest.raises(GraphError, match="tuple"):
            list(edge_records([("e1", "a")]))

    def test_tuple_stream_rejects_zero_weight(self):
        with pytest.raises(GraphError, match="nonzero"):
            list(edge_records([("e1", "a", "b", 0, 1)]))

    def test_graph_source_with_weight_specs(self):
        graph = EdgeKeyedDigraph([("e1", "a", "b"), ("e2", "b", "c")])
        recs = list(edge_records(graph, out_values={"e1": 5.0, "e2": 7.0}))
        assert recs[0] == EdgeRecord("e1", (("a", 5.0),), (("b", 1),))

    def test_array_pair_accepts_list_form(self):
        eout = AssociativeArray({("e1", "a"): 1})
        ein = AssociativeArray({("e1", "b"): 1})
        assert list(edge_records([eout, ein])) \
            == list(edge_records((eout, ein)))

    def test_array_pair_groups_hyperedges(self):
        eout = AssociativeArray({("e1", "a"): 1, ("e1", "b"): 1},
                                row_keys=["e1"], col_keys=["a", "b"])
        ein = AssociativeArray({("e1", "c"): 1}, row_keys=["e1"],
                               col_keys=["c"])
        (rec,) = edge_records((eout, ein))
        assert rec.out_entries == (("a", 1), ("b", 1))

    def test_array_pair_requires_shared_rows(self):
        eout = AssociativeArray({("e1", "a"): 1})
        ein = AssociativeArray({("e2", "b"): 1})
        with pytest.raises(ShardError, match="share the edge key set"):
            list(edge_records((eout, ein)))

    def test_unsupported_source(self):
        with pytest.raises(ShardError, match="unsupported edge source"):
            edge_records(42)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

class TestExecutor:
    def test_load_shard_is_row_restriction(self, tmp_path):
        pair, graph, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 3, tmp_path)
        seen_rows = set()
        for info in manifest.shards:
            s_eout, s_ein = load_shard(manifest, info, zero=pair.zero)
            assert s_eout.row_keys == s_ein.row_keys
            seen_rows.update(s_eout.row_keys)
            for (k, a), v in s_eout.to_dict().items():
                assert eout[k, a] == v
        assert seen_rows == set(eout.row_keys)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_products_merge_to_batch(self, tmp_path, executor):
        pair, graph, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 4, tmp_path)
        products = execute_shards(manifest, pair, executor=executor,
                                  n_workers=2)
        assert [p.index for p in products] == [0, 1, 2, 3]
        arrays = [pickle.loads(p.path.read_bytes()) for p in products]
        merged = merge_adjacency(arrays, pair)
        want = adjacency_array(eout, ein, pair)
        assert merged.with_keys(want.row_keys, want.col_keys) == want

    def test_unknown_executor(self, tmp_path):
        pair, _g, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 2, tmp_path)
        with pytest.raises(ShardError, match="executor"):
            execute_shards(manifest, pair, executor="gpu")

    def test_unregistered_pair_rejected_for_process_pool(self, tmp_path):
        from repro.values.domains import NonNegativeReals
        from repro.values.operations import PLUS, TIMES
        from repro.values.semiring import OpPair
        rogue = OpPair("rogue_shard", "r", PLUS, TIMES, NonNegativeReals())
        pair, _g, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 2, tmp_path)
        with pytest.raises(ShardError, match="not registered"):
            execute_shards(manifest, rogue, executor="process")

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_unregistered_pair_allowed_in_process(self, tmp_path,
                                                  executor):
        """Serial/thread execution never crosses a process boundary, so
        (like batch and streaming construction) it accepts pairs that
        are not in the registry."""
        from repro.values.domains import NonNegativeReals
        from repro.values.operations import PLUS, TIMES
        from repro.values.semiring import OpPair
        rogue = OpPair("rogue_shard2", "r", PLUS, TIMES,
                       NonNegativeReals())
        pair, _g, eout, ein = _weighted_operands()
        manifest = partition_edge_records(
            edge_records((eout, ein)), 2, tmp_path)
        products = execute_shards(manifest, rogue, executor=executor,
                                  n_workers=2)
        merged = merge_adjacency(
            [pickle.loads(p.path.read_bytes()) for p in products], rogue)
        want = adjacency_array(eout, ein, pair)  # same ops as rogue
        assert merged.with_keys(want.row_keys, want.col_keys) == want


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

class TestMerge:
    def test_oplus_union_overlapping_keys(self):
        pair = get_op_pair("plus_times")
        a = AssociativeArray({("u", "v"): 2.0}, zero=0)
        b = AssociativeArray({("u", "v"): 3.0, ("u", "w"): 1.0}, zero=0)
        merged = oplus_union(a, b, pair)
        assert merged["u", "v"] == 5.0
        assert merged["u", "w"] == 1.0

    def test_merge_odd_count(self):
        pair = get_op_pair("plus_times")
        parts = [AssociativeArray({("u", "v"): 1.0}, zero=0)
                 for _ in range(5)]
        assert merge_adjacency(parts, pair)["u", "v"] == 5.0

    def test_merge_empty_rejected(self):
        with pytest.raises(ShardError, match="no shard results"):
            merge_adjacency([], get_op_pair("plus_times"))

    def test_merge_spilled_cleans_up(self, tmp_path):
        pair = get_op_pair("plus_times")
        paths = []
        for i in range(5):
            p = tmp_path / f"part_{i}.pkl"
            p.write_bytes(pickle.dumps(
                AssociativeArray({("u", "v"): 1.0}, zero=0)))
            paths.append(p)
        merged = merge_spilled(paths, pair, workdir=tmp_path)
        assert merged["u", "v"] == 5.0
        assert list(tmp_path.iterdir()) == []  # inputs and spills removed

    def test_gate_refuses_uncertified(self):
        with pytest.raises(ShardError, match="Theorem II.1"):
            check_merge_safety(get_op_pair("int_plus_times"))

    def test_gate_refuses_order_sensitive(self):
        # skew_plus_times passes the criteria but its ⊕ is flagged
        # non-associative/non-commutative — the merge tree reorders folds.
        with pytest.raises(ShardError, match="associative"):
            check_merge_safety(get_op_pair("skew_plus_times"))

    def test_gate_unsafe_ok_overrides(self):
        # unsafe_ok short-circuits: no certification is computed (or
        # required) when the caller has opted out of the guarantee.
        assert check_merge_safety(get_op_pair("int_plus_times"),
                                  unsafe_ok=True) is None

    def test_gate_reuses_precomputed_certification(self):
        from repro.core.certify import certify
        pair = get_op_pair("plus_times")
        cert = certify(pair, seed=0xD4, build_witness=False)
        assert check_merge_safety(pair, certification=cert) is cert


# ---------------------------------------------------------------------------
# Plan front-end
# ---------------------------------------------------------------------------

class TestPlan:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_batch(self, executor, n_shards):
        pair, graph, eout, ein = _weighted_operands()
        want = adjacency_array(eout, ein, pair)
        plan = ShardedAdjacencyPlan(pair, n_shards=n_shards,
                                    executor=executor, n_workers=2)
        result = plan.run((eout, ein))
        assert result.adjacency == want  # bit-identical, keysets included

    def test_acceptance_four_process_shards(self):
        """The acceptance criterion verbatim: --shards 4 --executor
        process equals batch construction bit-for-bit."""
        pair, graph, eout, ein = _weighted_operands(n_edges=90, seed=9)
        want = adjacency_array(eout, ein, pair)
        got = sharded_adjacency((eout, ein), pair, n_shards=4,
                                executor="process", n_workers=2)
        assert got == want

    @pytest.mark.parametrize("pair_name", ["min_plus", "max_min",
                                           "gcd_lcm"])
    def test_other_algebras(self, pair_name):
        pair, graph, eout, ein = _weighted_operands(pair_name)
        want = adjacency_array(eout, ein, pair)
        assert sharded_adjacency((eout, ein), pair, n_shards=3) == want

    def test_graph_source_with_weights(self):
        pair = get_op_pair("plus_times")
        graph = erdos_renyi_multigraph(8, 30, seed=2)
        weights = {k: 2.0 for k in graph.edge_keys}
        eout, ein = incidence_arrays(graph, zero=pair.zero,
                                     out_values=weights, in_values=weights)
        want = adjacency_array(eout, ein, pair)
        got = ShardedAdjacencyPlan(pair, n_shards=3).run(
            graph, out_values=weights, in_values=weights).adjacency
        assert got == want

    def test_tsv_source(self, tmp_path):
        pair, graph, eout, ein = _weighted_operands()
        write_tsv_triples(eout, tmp_path / "eout.tsv")
        write_tsv_triples(ein, tmp_path / "ein.tsv")
        want = adjacency_array(eout, ein, pair)
        got = sharded_adjacency(
            (tmp_path / "eout.tsv", tmp_path / "ein.tsv"), pair,
            n_shards=4, strategy="hash")
        assert got == want

    def test_empty_source(self):
        adj = sharded_adjacency([], get_op_pair("plus_times"), n_shards=3)
        assert adj.nnz == 0 and adj.shape == (0, 0)

    def test_integer_keys_survive(self):
        """auto format resolves to pickle for in-memory sources, so
        non-string keys keep their types (a TSV shard would retype
        them to strings and diverge from batch)."""
        pair = get_op_pair("plus_times")
        adj = sharded_adjacency([(1, 10, 20), (2, 10, 20)], pair,
                                n_shards=2)
        assert adj[10, 20] == 2
        assert list(adj.row_keys) == [10]

    def test_plan_reuse_across_sources(self, tmp_path):
        """partition() resets per-source state, so one plan can run an
        array-pair source and then a TSV source without the first
        source's key sets leaking into the second result."""
        pair, _g, eout, ein = _weighted_operands()
        want = adjacency_array(eout, ein, pair)
        plan = ShardedAdjacencyPlan(pair, n_shards=2)
        assert plan.run((eout, ein)).adjacency == want
        write_tsv_triples(eout, tmp_path / "eo.tsv")
        write_tsv_triples(ein, tmp_path / "ei.tsv")
        again = plan.run((tmp_path / "eo.tsv", tmp_path / "ei.tsv"))
        assert again.adjacency == want

    def test_temp_workdir_removed(self):
        pair, _g, eout, ein = _weighted_operands()
        plan = ShardedAdjacencyPlan(pair, n_shards=2)
        plan.partition((eout, ein))
        workdir = plan.workdir
        assert workdir.exists()
        result = plan.execute()
        assert not workdir.exists()
        # The returned manifest is detached from the deleted directory:
        # stats remain readable, paths raise cleanly instead of dangling.
        assert result.manifest.root is None
        assert result.manifest.n_shards == 2
        with pytest.raises(ShardError, match="root"):
            result.manifest.shard_paths(result.manifest.shards[0])

    def test_kept_workdir_manifest_stays_attached(self, tmp_path):
        pair, _g, eout, ein = _weighted_operands()
        plan = ShardedAdjacencyPlan(pair, n_shards=2, workdir=tmp_path,
                                    keep_workdir=True)
        result = plan.run((eout, ein))
        eout_path, _ = result.manifest.shard_paths(
            result.manifest.shards[0])
        assert eout_path.exists()

    def test_explicit_workdir_kept(self, tmp_path):
        pair, _g, eout, ein = _weighted_operands()
        plan = ShardedAdjacencyPlan(pair, n_shards=2, workdir=tmp_path,
                                    keep_workdir=True)
        plan.run((eout, ein))
        assert (tmp_path / "manifest.json").exists()
        assert ShardManifest.load(tmp_path).n_shards == 2

    def test_failed_execute_cleans_spills_from_explicit_workdir(
            self, tmp_path):
        """A merge/execute failure must not leave adj_*/merge_* spill
        files in a user-owned workdir."""
        # String values make plus_times ⊗ raise inside the executor.
        (tmp_path / "eout.tsv").write_text("e1\ta\tabc\ne2\ta\txyz\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\tdef\ne2\tb\tghi\n")
        (tmp_path / "mine.txt").write_text("keep")
        plan = ShardedAdjacencyPlan(get_op_pair("plus_times"), n_shards=2,
                                    executor="serial", workdir=tmp_path)
        with pytest.raises(TypeError):
            plan.run((tmp_path / "eout.tsv", tmp_path / "ein.tsv"))
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == ["ein.tsv", "eout.tsv", "mine.txt"]

    def test_writer_init_failure_discards_created_files(self, tmp_path,
                                                        monkeypatch):
        """_ShardSetWriter dying midway through opening (e.g. fd
        exhaustion) removes the shard files it already created."""
        import repro.shard.partition as partition_mod
        real_writer = partition_mod._EntryWriter
        created = []

        class FlakyWriter(real_writer):
            def __init__(self, path, fmt, validate=True):
                if len(created) >= 5:
                    raise OSError(24, "Too many open files")
                super().__init__(path, fmt, validate)
                created.append(path)

        monkeypatch.setattr(partition_mod, "_EntryWriter", FlakyWriter)
        outdir = tmp_path / "out"
        with pytest.raises(OSError):
            partition_edge_records(
                edge_records([("e1", "a", "b")]), 8, outdir)
        assert list(outdir.iterdir()) == []

    def test_explicit_workdir_cleaned_without_keep(self, tmp_path):
        """keep_workdir=False cleans the plan's own files out of an
        explicit workdir (it would otherwise leak a dataset-sized copy
        per run) but leaves unrelated files alone."""
        (tmp_path / "unrelated.txt").write_text("mine")
        pair, _g, eout, ein = _weighted_operands()
        result = ShardedAdjacencyPlan(pair, n_shards=2,
                                      workdir=tmp_path).run((eout, ein))
        assert [p.name for p in tmp_path.iterdir()] == ["unrelated.txt"]
        assert result.manifest.root is None  # detached, nothing dangles

    def test_refuses_uncertified_pair(self):
        with pytest.raises(ShardError, match="Theorem II.1"):
            ShardedAdjacencyPlan(get_op_pair("union_intersection"))

    def test_unsafe_ok_runs_and_is_flagged(self):
        pair = get_op_pair("int_plus_times")
        plan = ShardedAdjacencyPlan(pair, n_shards=2, unsafe_ok=True)
        assert not plan.certification.safe
        # ℤ's zero sums cancel: two edges a→b with weights ±2 vanish.
        result = plan.run([("e1", "a", "b", 2, 1), ("e2", "a", "b", -2, 1)])
        assert result.adjacency.nnz == 0

    def test_order_sensitive_property(self):
        plan = ShardedAdjacencyPlan(get_op_pair("skew_plus_times"),
                                    unsafe_ok=True)
        assert plan.order_sensitive
        assert not ShardedAdjacencyPlan(
            get_op_pair("plus_times")).order_sensitive

    def test_invalid_parameters(self):
        pair = get_op_pair("plus_times")
        with pytest.raises(ShardError, match="n_shards"):
            ShardedAdjacencyPlan(pair, n_shards=0)
        with pytest.raises(ShardError, match="n_workers"):
            ShardedAdjacencyPlan(pair, n_workers=0)
        with pytest.raises(ShardError, match="mode"):
            ShardedAdjacencyPlan(pair, mode="lazy")
        with pytest.raises(ShardError, match="executor"):
            ShardedAdjacencyPlan(pair, executor="gpu")
        with pytest.raises(ShardError, match="strategy"):
            ShardedAdjacencyPlan(pair, strategy="modulo")
        with pytest.raises(ShardError, match="format"):
            ShardedAdjacencyPlan(pair, shard_format="parquet")

    def test_execute_before_partition(self):
        with pytest.raises(ShardError, match="partition"):
            ShardedAdjacencyPlan(get_op_pair("plus_times")).execute()

    def test_failed_repartition_invalidates_manifest(self, tmp_path):
        """A partition that raises midway must not leave the previous
        manifest paired with partially rewritten shard files — execute()
        would silently build a wrong adjacency from the mix."""
        pair, _g, eout, ein = _weighted_operands()
        plan = ShardedAdjacencyPlan(pair, n_shards=2, workdir=tmp_path,
                                    keep_workdir=True)
        plan.partition((eout, ein))
        assert plan.manifest is not None
        with pytest.raises(GraphError):
            plan.partition([("e1", "a", "b", 0, 1)])  # zero weight
        assert plan.manifest is None
        with pytest.raises(ShardError, match="partition"):
            plan.execute()
        # The on-disk manifest is gone too: loading the kept workdir
        # cannot resurrect run-A metadata over run-B's partial files.
        with pytest.raises(ShardError, match="no manifest"):
            ShardManifest.load(tmp_path)

    def test_no_temp_dir_leak_on_failure(self):
        """Failures during partition/execute must remove the auto-created
        temp workdir, not leak one per failed call."""
        import tempfile
        tmp = Path(tempfile.gettempdir())
        before = {p.name for p in tmp.glob("repro-shard-*")}
        with pytest.raises(ShardError):
            sharded_adjacency(
                [EdgeRecord("e1", (("a", 1),), (("b", 1),))] * 2,
                get_op_pair("plus_times"))  # duplicate edge key
        after = {p.name for p in tmp.glob("repro-shard-*")}
        assert after == before

    def test_keep_workdir_retains_spill_files(self, tmp_path):
        """keep_workdir preserves the per-shard adjacency spills (the
        documented inspect-the-spill-files workflow) in the plan-owned
        spill/ subdirectory."""
        pair, _g, eout, ein = _weighted_operands()
        plan = ShardedAdjacencyPlan(pair, n_shards=3, workdir=tmp_path,
                                    keep_workdir=True)
        plan.run((eout, ein))
        assert sorted(p.name
                      for p in (tmp_path / "spill").glob("adj_*.pkl")) == \
            ["adj_00000.pkl", "adj_00001.pkl", "adj_00002.pkl"]

    def test_cleanup_never_touches_user_files_matching_spill_names(
            self, tmp_path):
        """Spills live in the plan-owned spill/ subdir, so even a user
        file named like a spill in the workdir root survives cleanup."""
        (tmp_path / "adj_00000.pkl").write_text("users own backup")
        (tmp_path / "merge_001_00000.pkl").write_text("users own notes")
        pair, _g, eout, ein = _weighted_operands()
        ShardedAdjacencyPlan(pair, n_shards=2,
                             workdir=tmp_path).run((eout, ein))
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["adj_00000.pkl", "merge_001_00000.pkl"]
        assert (tmp_path / "adj_00000.pkl").read_text() \
            == "users own backup"

    def test_refuses_to_overwrite_foreign_shard_set(self, tmp_path):
        """A kept shard set from another run is protected: a new plan
        pointed at the same workdir refuses unless overwrite=True."""
        pair, _g, eout, ein = _weighted_operands()
        ShardedAdjacencyPlan(pair, n_shards=3, workdir=tmp_path,
                             keep_workdir=True).run((eout, ein))
        want = adjacency_array(eout, ein, pair)
        fresh = ShardedAdjacencyPlan(pair, n_shards=2, workdir=tmp_path,
                                     keep_workdir=True)
        with pytest.raises(ShardError, match="overwrite=True"):
            fresh.partition((eout, ein))
        # The kept set is intact and still loadable after the refusal.
        assert ShardManifest.load(tmp_path).n_shards == 3
        replacing = ShardedAdjacencyPlan(pair, n_shards=2,
                                         workdir=tmp_path,
                                         keep_workdir=True, overwrite=True)
        assert replacing.run((eout, ein)).adjacency == want
        assert ShardManifest.load(tmp_path).n_shards == 2
        # Replacement is whole-set: no orphaned higher-numbered shard
        # files from the old 3-shard run remain next to the new set.
        assert sorted(p.name for p in tmp_path.glob("shard_*")) == [
            "shard_00000.ein.pkl", "shard_00000.eout.pkl",
            "shard_00001.ein.pkl", "shard_00001.eout.pkl"]

    def test_failed_partition_spares_user_spill_dir(self, tmp_path):
        """A pre-existing user directory named spill/ survives a failed
        partition — cleanup removes spill/ only when this plan made it."""
        (tmp_path / "spill").mkdir()
        (tmp_path / "spill" / "precious.txt").write_text("keep")
        plan = ShardedAdjacencyPlan(get_op_pair("plus_times"), n_shards=2,
                                    workdir=tmp_path)
        with pytest.raises(GraphError):
            plan.partition([("e1", "a", "b", 0, 1)])  # zero weight
        assert (tmp_path / "spill" / "precious.txt").read_text() == "keep"

    def test_refused_plan_leaves_kept_set_untouched(self, tmp_path):
        """A plan refused by the overwrite guard must not clean up the
        kept shard set it was refused access to."""
        pair, _g, eout, ein = _weighted_operands()
        ShardedAdjacencyPlan(pair, n_shards=3, workdir=tmp_path,
                             keep_workdir=True).run((eout, ein))
        kept = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        intruder = ShardedAdjacencyPlan(pair, n_shards=2,
                                        workdir=tmp_path)
        with pytest.raises(ShardError, match="already contains"):
            intruder.partition((eout, ein))
        intruder.close()
        assert sorted(p.name for p in tmp_path.rglob("*")
                      if p.is_file()) == kept

    def test_abandoned_plan_context_manager_cleans_temp_dir(self):
        """The staged flow must not leak the mkdtemp'd workdir when the
        plan is abandoned after partition()."""
        pair, _g, eout, ein = _weighted_operands()
        with ShardedAdjacencyPlan(pair, n_shards=2) as plan:
            plan.partition((eout, ein))
            staged = plan.workdir
            assert staged.exists()
        assert not staged.exists()

    def test_close_is_idempotent_and_safe_before_partition(self):
        plan = ShardedAdjacencyPlan(get_op_pair("plus_times"))
        plan.close()
        plan.close()

    def test_result_reports_stats(self):
        pair, graph, eout, ein = _weighted_operands()
        result = ShardedAdjacencyPlan(pair, n_shards=3).run((eout, ein))
        assert len(result.shard_nnz) == 3
        assert set(result.timings) == {"partition", "execute", "merge",
                                       "total"}
        assert result.nnz == result.adjacency.nnz


# ---------------------------------------------------------------------------
# CLI: repro build and --version
# ---------------------------------------------------------------------------

class TestBuildCLI:
    def _write_pair(self, tmp_path, pair_name="plus_times", seed=5):
        pair, graph, eout, ein = _weighted_operands(pair_name, seed=seed)
        write_tsv_triples(eout, tmp_path / "eout.tsv")
        write_tsv_triples(ein, tmp_path / "ein.tsv")
        return pair, eout, ein

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["build", "a.tsv", "b.tsv", "-o", "c.tsv", "--shards", "8",
             "--workers", "3", "--executor", "process"])
        assert args.command == "build"
        assert (args.shards, args.workers, args.executor) == (8, 3,
                                                              "process")

    def test_version_flag(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_end_to_end_bit_identical(self, tmp_path, capsys):
        pair, eout, ein = self._write_pair(tmp_path)
        out = tmp_path / "adj.tsv"
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o", str(out),
                     "--shards", "4", "--executor", "process",
                     "--workers", "2"])
        assert code == 0
        want = adjacency_array(eout, ein, pair)
        got = read_tsv_triples(out, zero=pair.zero,
                               row_keys=want.row_keys,
                               col_keys=want.col_keys)
        assert got == want
        report = capsys.readouterr().out
        assert "4 shards" in report and "process" in report

    def test_workdir_keeps_manifest(self, tmp_path):
        self._write_pair(tmp_path)
        work = tmp_path / "work"
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--workdir", str(work),
                     "--quiet"])
        assert code == 0
        assert ShardManifest.load(work).n_shards == 4
        # Re-pointing --workdir at the same directory is intent: the
        # CLI replaces the previous run's shard set without a refusal.
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--workdir", str(work),
                     "--shards", "2", "--quiet"])
        assert code == 0
        assert ShardManifest.load(work).n_shards == 2

    def test_refuses_uncertified_without_unsafe_ok(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--pair", "int_plus_times"])
        assert code == 1
        err = capsys.readouterr().err
        assert "refused" in err
        assert "--unsafe-ok" in err         # CLI spelling, not unsafe_ok=
        assert "unsafe_ok=True" not in err

    def test_unsafe_ok_overrides(self, tmp_path):
        self._write_pair(tmp_path)
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--pair", "int_plus_times",
                     "--unsafe-ok", "--quiet"])
        assert code == 0

    @pytest.mark.parametrize("pair_name", ["int_plus_times",
                                           "skew_plus_times"])
    def test_unsafe_ok_report_flags_waived_guarantees(self, tmp_path,
                                                      capsys, pair_name):
        """Both failure modes — uncertified criteria AND certified-safe
        but order-sensitive ⊕ — must be marked UNSAFE in the summary."""
        self._write_pair(tmp_path)
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--pair", pair_name,
                     "--unsafe-ok"])
        assert code == 0
        assert "UNSAFE — guarantees waived" in capsys.readouterr().out

    def test_malformed_value_type_exit_one(self, tmp_path, capsys):
        """A text value where the algebra expects a number fails with
        the clean diagnostic, not a worker traceback."""
        (tmp_path / "eout.tsv").write_text("e1\ta\tb\n")
        (tmp_path / "ein.tsv").write_text("e1\tc\t1\n")
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "adj.tsv"), "--executor", "serial"])
        assert code == 1
        assert "build failed" in capsys.readouterr().err

    def test_unknown_pair_exit_two(self, tmp_path, capsys):
        code = main(["build", "a.tsv", "b.tsv", "-o", "c.tsv",
                     "--pair", "bogus"])
        assert code == 2
        assert "unknown op-pair" in capsys.readouterr().err

    def test_missing_input_exit_one(self, tmp_path, capsys):
        code = main(["build", str(tmp_path / "none.tsv"),
                     str(tmp_path / "none2.tsv"), "-o",
                     str(tmp_path / "adj.tsv")])
        assert code == 1
        assert "build failed" in capsys.readouterr().err

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o",
                     str(tmp_path / "no-such-dir" / "adj.tsv"),
                     "--quiet"])
        assert code == 1
        assert "build failed" in capsys.readouterr().err

    def test_failed_write_keeps_previous_output(self, tmp_path, capsys,
                                                monkeypatch):
        """A build that dies while writing ``-o`` leaves the previous
        output byte-identical and no temporary file behind."""
        self._write_pair(tmp_path)
        out = tmp_path / "adj.tsv"
        out.write_bytes(b"previous\tbuild\t1\n")
        monkeypatch.setattr(io_mod, "_WRITE_CHUNK", 1)
        monkeypatch.setattr(io_mod, "open", _failing_open(after=2),
                            raising=False)
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o", str(out),
                     "--quiet"])
        assert code == 1
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == b"previous\tbuild\t1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["adj.tsv", "ein.tsv", "eout.tsv"]

    def test_dense_blocked_kernel_with_dense_mode(self, tmp_path):
        """--kernel dense_blocked is usable via --mode dense and agrees
        with the default sparse run."""
        pair, eout, ein = self._write_pair(tmp_path)
        out = tmp_path / "adj_dense.tsv"
        code = main(["build", str(tmp_path / "eout.tsv"),
                     str(tmp_path / "ein.tsv"), "-o", str(out),
                     "--kernel", "dense_blocked", "--mode", "dense",
                     "--quiet"])
        assert code == 0
        want = adjacency_array(eout, ein, pair)
        got = read_tsv_triples(out, zero=pair.zero,
                               row_keys=want.row_keys,
                               col_keys=want.col_keys)
        assert got.allclose(want)

    def test_bad_kernel_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["build", "a.tsv", "b.tsv",
                                       "-o", "c.tsv", "--kernel", "gpu"])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# The coded shard format
# ---------------------------------------------------------------------------

def _write_numeric_pair(tmp_path, n_edges=2000, n_vertices=90, seed=3):
    """A TSV incidence pair large enough for columnar shard arrays
    (integer weights, so every ⊕ fold order is exact)."""
    import random
    rng = random.Random(seed)
    out_lines, in_lines = [], []
    for i in range(n_edges):
        out_lines.append(f"e{i}\tv{rng.randrange(n_vertices)}\t"
                         f"{rng.randrange(1, 9)}\n")
        in_lines.append(f"e{i}\tv{rng.randrange(n_vertices)}\t"
                        f"{rng.randrange(1, 9)}\n")
    (tmp_path / "eout.tsv").write_text("".join(out_lines))
    (tmp_path / "ein.tsv").write_text("".join(in_lines))
    return tmp_path / "eout.tsv", tmp_path / "ein.tsv"


def _batch(eout_path, ein_path, pair):
    return adjacency_array(read_tsv_triples(eout_path, zero=pair.zero),
                           read_tsv_triples(ein_path, zero=pair.zero), pair)


class TestCodedShards:
    @pytest.mark.parametrize("pair_name", ["plus_times", "min_plus",
                                           "max_min"])
    @pytest.mark.parametrize("backend", ["auto", "numeric"])
    def test_large_coded_build_equals_batch(self, tmp_path, pair_name,
                                            backend):
        pair = get_op_pair(pair_name)
        paths = _write_numeric_pair(tmp_path)
        plan = ShardedAdjacencyPlan(pair, n_shards=3, backend=backend,
                                    workdir=tmp_path / "work",
                                    keep_workdir=True)
        result = plan.run(paths)
        assert result.manifest.format == "coded"
        assert result.adjacency.backend == "numeric"
        assert result.adjacency == _batch(*paths, pair)
        assert not list((tmp_path / "work").rglob("*.pkl"))

    def test_small_build_keeps_python_value_types(self, tmp_path):
        """Tiny shards stay dict-backed end to end, exactly as the
        ``"tsv"`` format builds them, so ints print as ints."""
        (tmp_path / "eout.tsv").write_text("e1\ta\t2\ne2\ta\t3\ne3\tb\t5\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\ne2\tb\t1\ne3\tc\t1\n")
        pair = get_op_pair("plus_times")
        outs = {}
        for fmt in ("auto", "tsv"):
            plan = ShardedAdjacencyPlan(pair, n_shards=2, shard_format=fmt)
            result = plan.run((tmp_path / "eout.tsv", tmp_path / "ein.tsv"))
            assert result.manifest.format == {"auto": "coded"}.get(fmt, fmt)
            write_tsv_triples(result.adjacency, tmp_path / f"{fmt}.tsv")
            outs[fmt] = (tmp_path / f"{fmt}.tsv").read_bytes()
        assert outs["auto"] == outs["tsv"] == b"a\tb\t5\nb\tc\t5\n"

    def test_auto_format_choice(self, tmp_path):
        paths = _write_numeric_pair(tmp_path, n_edges=40)
        pair = get_op_pair("plus_times")

        def fmt(**options):
            plan = ShardedAdjacencyPlan(pair, n_shards=2,
                                        workdir=tmp_path / "w",
                                        keep_workdir=True, overwrite=True,
                                        **options)
            return plan.partition(paths).format

        # The choice depends on the input only, never on the options.
        assert fmt() == "coded"
        assert fmt(backend="dict") == "coded"
        assert fmt(unsafe_ok=True) == "coded"
        assert fmt(shard_format="tsv") == "tsv"
        # Text values fall back to the "tsv" format.
        (tmp_path / "eout.tsv").write_text("e1\ta\tx\n")
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\n")
        assert fmt() == "tsv"
        # "coded" is what "auto" resolves to, not a plan option.
        with pytest.raises(ShardError, match="unknown shard format"):
            ShardedAdjacencyPlan(pair, shard_format="coded")
        with pytest.raises(ShardError, match="TSV incidence pairs"):
            partition_edge_records([], 2, tmp_path / "recs",
                                   shard_format="coded")

    @pytest.mark.parametrize("flaw", ["mixed", "huge", "nonnumeric_zero"])
    def test_fallback_to_tsv(self, tmp_path, flaw):
        """A side mixing int and float texts, an int of 2⁵³ or more, or
        a non-numeric zero: the partition is redone as ``"tsv"``."""
        (tmp_path / "eout.tsv").write_text(
            {"mixed": "e1\ta\t2\ne2\ta\t2.5\n",
             "huge": f"e1\ta\t{2**53 + 1}\ne2\ta\t2\n",
             "nonnumeric_zero": "e1\ta\t2\ne2\ta\t3\n"}[flaw])
        (tmp_path / "ein.tsv").write_text("e1\tb\t1\ne2\tc\t1\n")
        zero = "z" if flaw == "nonnumeric_zero" else 0
        manifest = partition_tsv_pair(
            tmp_path / "eout.tsv", tmp_path / "ein.tsv", 2,
            tmp_path / "shards", shard_format="coded", zero=zero)
        assert manifest.format == "tsv" and manifest.version == 1
        assert sorted(p.name for p in (tmp_path / "shards").iterdir()) == [
            "manifest.json", "shard_00000.ein.tsv", "shard_00000.eout.tsv",
            "shard_00001.ein.tsv", "shard_00001.eout.tsv"]

    def test_duplicate_coordinate_names_string_keys(self, tmp_path):
        paths = _write_numeric_pair(tmp_path)
        with paths[0].open("a") as fh:
            fh.write("e7\tv3\t1\ne7\tv3\t2\n")
        plan = ShardedAdjacencyPlan(get_op_pair("plus_times"), n_shards=2)
        with pytest.raises(KeyError_, match=r"duplicate coordinate "
                                            r"\('e7', 'v3'\)"):
            plan.run(paths)

    def test_layout(self, tmp_path):
        import numpy as np
        (tmp_path / "eout.tsv").write_text("e2\tzed\t2\ne1\tamy\t3\n")
        (tmp_path / "ein.tsv").write_text("e1\tbo\t1\ne2\tbo\t4\n")
        manifest = partition_tsv_pair(
            tmp_path / "eout.tsv", tmp_path / "ein.tsv", 1,
            tmp_path / "shards", shard_format="coded")
        root = tmp_path / "shards"
        doc = json.loads((root / "manifest.json").read_text())
        assert doc["format"] == "coded" and doc["format_version"] == 2
        assert doc["value_types"] == {"eout": "int", "ein": "int"}
        assert (root / "keys.edge.txt").read_text() == "e1\ne2\n"
        assert np.load(root / "rank.edge.npy").tolist() == [1, 0]
        assert (root / "keys.out.txt").read_text() == "amy\nzed\n"
        assert np.load(root / "rank.out.npy").tolist() == [1, 0]
        records = np.fromfile(root / "shard_00000.eout.bin",
                              dtype=[("row", "<i8"), ("col", "<i8"),
                                     ("val", "<f8")])
        assert records.tolist() == [(0, 0, 2.0), (1, 1, 3.0)]
        assert manifest.shards[0].n_out_entries == 2

    def test_set_executed_under_another_zero(self, tmp_path):
        """A set partitioned for one zero and executed under a pair with
        another drops the values equal to the new zero, as the ``"tsv"``
        format's column build does."""
        import random
        from repro.shard.executor import vertex_keys
        rng = random.Random(11)
        for name in ("eout.tsv", "ein.tsv"):
            (tmp_path / name).write_text("".join(
                f"e{i}\tv{rng.randrange(40)}\t"
                f"{'inf' if i % 7 == 0 else float(rng.randrange(1, 9))}\n"
                for i in range(600)))
        paths = (tmp_path / "eout.tsv", tmp_path / "ein.tsv")
        min_plus = get_op_pair("min_plus")
        got = {}
        for fmt in ("coded", "tsv"):
            manifest = partition_tsv_pair(*paths, 2, tmp_path / fmt,
                                          shard_format=fmt, zero=0)
            assert manifest.format == fmt
            products = execute_shards(manifest, min_plus,
                                      executor="serial")
            got[fmt] = merge_spilled([p.path for p in products], min_plus,
                                     keys=vertex_keys(manifest))
        assert got["coded"] == got["tsv"]
        assert got["coded"] == _batch(*paths, min_plus)

    # -- damaged sets ---------------------------------------------------------
    def _kept_set(self, tmp_path):
        paths = _write_numeric_pair(tmp_path, n_edges=300)
        return partition_tsv_pair(*paths, 2, tmp_path / "shards",
                                  shard_format="coded")

    def _execute(self, manifest):
        return execute_shards(manifest, get_op_pair("plus_times"),
                              executor="serial",
                              workdir=manifest.root / "spill")

    @pytest.mark.parametrize("cut", [7, 24])
    def test_truncated_shard_file(self, tmp_path, cut):
        """Mid-record and record-boundary truncations are both caught:
        the first by the record size, the second by the manifest
        count."""
        manifest = self._kept_set(tmp_path)
        path = manifest.shard_paths(manifest.shards[1])[0]
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        match = "whole number" if cut % 24 else "manifest says"
        with pytest.raises(ShardError, match=match) as exc:
            self._execute(manifest)
        assert str(path) in str(exc.value)
        with pytest.raises(ShardError, match=match):
            load_shard(manifest, manifest.shards[1])

    @pytest.mark.parametrize("table", ["keys.out.txt", "rank.in.npy",
                                       "keys.edge.txt", "rank.edge.npy"])
    def test_missing_key_table(self, tmp_path, table):
        manifest = self._kept_set(tmp_path)
        (manifest.root / table).unlink()
        with pytest.raises(ShardError, match="missing key table") as exc:
            self._execute(manifest)
        assert str(manifest.root / table) in str(exc.value)

    def test_missing_key_table_on_load(self, tmp_path):
        manifest = self._kept_set(tmp_path)
        (manifest.root / "keys.edge.txt").unlink()
        with pytest.raises(ShardError, match="missing key table"):
            load_shard(manifest, manifest.shards[0])

    @pytest.mark.parametrize("field", ["row", "col"])
    def test_code_outside_key_table(self, tmp_path, field):
        import numpy as np
        manifest = self._kept_set(tmp_path)
        path = manifest.shard_paths(manifest.shards[0])[1]
        records = np.fromfile(path, dtype=[("row", "<i8"), ("col", "<i8"),
                                           ("val", "<f8")])
        records[field][3] = 10**6
        records.tofile(path)
        with pytest.raises(ShardError, match="outside its key table") as exc:
            self._execute(manifest)
        assert str(path) in str(exc.value)
        with pytest.raises(ShardError, match="outside its key table"):
            load_shard(manifest, manifest.shards[0])

    def test_coded_manifest_needs_version_two(self, tmp_path):
        manifest = self._kept_set(tmp_path)
        doc = json.loads((manifest.root / "manifest.json").read_text())
        doc["format_version"] = 1
        (manifest.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ShardError, match="format_version"):
            ShardManifest.load(manifest.root)

    # -- lifecycle ------------------------------------------------------------
    def test_explicit_workdir_cleanup_removes_tables(self, tmp_path):
        paths = _write_numeric_pair(tmp_path, n_edges=50)
        work = tmp_path / "work"
        work.mkdir()
        (work / "mine.txt").write_text("keep")
        ShardedAdjacencyPlan(get_op_pair("plus_times"), n_shards=2,
                             workdir=work).run(paths)
        assert [p.name for p in work.iterdir()] == ["mine.txt"]

    def test_overwrite_replaces_tables_with_the_set(self, tmp_path):
        paths = _write_numeric_pair(tmp_path, n_edges=50)
        work = tmp_path / "work"
        pair = get_op_pair("plus_times")
        ShardedAdjacencyPlan(pair, n_shards=3, workdir=work,
                             keep_workdir=True).run(paths)
        ShardedAdjacencyPlan(pair, n_shards=2, workdir=work,
                             keep_workdir=True, overwrite=True,
                             shard_format="tsv").run(paths)
        assert sorted(p.name for p in work.iterdir() if p.is_file()) == [
            "manifest.json", "shard_00000.ein.tsv", "shard_00000.eout.tsv",
            "shard_00001.ein.tsv", "shard_00001.eout.tsv"]

    # -- no pickle on the coded path -----------------------------------------
    def test_build_and_serve_coded_workdir_without_pickle(self, tmp_path,
                                                          monkeypatch):
        from repro.serve import AdjacencyService
        paths = _write_numeric_pair(tmp_path)

        def refuse(*_args, **_kwargs):
            raise AssertionError("pickle used on the coded path")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "dump", refuse)
        monkeypatch.setattr(pickle, "dumps", refuse)
        out = tmp_path / "adj.tsv"
        work = tmp_path / "work"
        assert main(["build", str(paths[0]), str(paths[1]), "-o", str(out),
                     "--workdir", str(work), "--quiet"]) == 0
        assert ShardManifest.load(work).format == "coded"
        assert not list(work.rglob("*.pkl"))
        pair = get_op_pair("plus_times")
        served = AdjacencyService.from_manifest(work).snapshot().adjacency
        keys = (served.row_keys, served.col_keys)  # the vertex union
        assert served == read_tsv_triples(out, zero=pair.zero).with_keys(
            *keys)
        assert served == _batch(*paths, pair).with_keys(*keys)

    # -- the coded format serves every option --------------------------------
    @pytest.mark.parametrize("pair_name", ["plus_times", "min_plus",
                                           "max_min", "gcd_lcm",
                                           "nat_plus_times"])
    def test_dict_backend_on_coded_set(self, tmp_path, pair_name):
        """``backend="dict"`` builds a coded set exactly as the
        ``"tsv"`` format does, dict storage end to end."""
        pair = get_op_pair(pair_name)
        paths = _write_numeric_pair(tmp_path, n_edges=600)
        got = {}
        for fmt in ("auto", "tsv"):
            result = ShardedAdjacencyPlan(
                pair, n_shards=3, backend="dict", shard_format=fmt,
                workdir=tmp_path / fmt, keep_workdir=True).run(paths)
            assert result.manifest.format == {"auto": "coded"}.get(fmt, fmt)
            assert result.adjacency.backend == "dict"
            write_tsv_triples(result.adjacency, tmp_path / f"{fmt}.tsv")
            got[fmt] = (tmp_path / f"{fmt}.tsv").read_bytes()
        assert got["auto"] == got["tsv"]
        assert not list((tmp_path / "auto").rglob("*.pkl"))

    def test_service_from_coded_manifest_with_dict_backend(self, tmp_path):
        from repro.serve import AdjacencyService
        paths = _write_numeric_pair(tmp_path, n_edges=600)
        work = tmp_path / "work"
        assert main(["build", str(paths[0]), str(paths[1]), "-o",
                     str(tmp_path / "adj.tsv"), "--workdir", str(work),
                     "--quiet"]) == 0
        assert ShardManifest.load(work).format == "coded"
        pair = get_op_pair("plus_times")
        served = AdjacencyService.from_manifest(
            work, backend="dict").snapshot().adjacency
        assert served.backend == "dict"
        keys = (served.row_keys, served.col_keys)
        assert served == _batch(*paths, pair).with_keys(*keys)

    @pytest.mark.parametrize("pair_name,unsafe_ok", [
        ("plus_times", False), ("skew_plus_times", True),
        ("int_plus_times", True)])
    @pytest.mark.parametrize("backend", ["auto", "numeric", "dict"])
    def test_fold_order_matches_tsv(self, tmp_path, pair_name, unsafe_ok,
                                    backend):
        """Edges arrive out of key order and their products are summed
        where the order shows (floats that cancel, a non-associative
        ⊕): coded shards fold each shard's edges in key order, as the
        ``"tsv"`` format does, so the output is byte-identical."""
        import random
        rng = random.Random(5)
        order = list(range(900))
        rng.shuffle(order)
        weights = (1e16, 1.0, -1e16, 0.5, 3.25, -2.0)
        out_lines, in_lines = [], []
        for i in order:
            out_lines.append(f"k{i}\tv{i % 4}\t{rng.choice(weights)}\n")
            in_lines.append(f"k{i}\tw{i % 3}\t{rng.choice(weights)}\n")
        (tmp_path / "eout.tsv").write_text("".join(out_lines))
        (tmp_path / "ein.tsv").write_text("".join(in_lines))
        paths = (tmp_path / "eout.tsv", tmp_path / "ein.tsv")
        pair = get_op_pair(pair_name)
        got = {}
        for fmt in ("auto", "tsv"):
            result = ShardedAdjacencyPlan(
                pair, n_shards=3, backend=backend, shard_format=fmt,
                unsafe_ok=unsafe_ok).run(paths)
            assert result.manifest.format == {"auto": "coded"}.get(fmt, fmt)
            write_tsv_triples(result.adjacency, tmp_path / f"{fmt}.tsv")
            got[fmt] = (tmp_path / f"{fmt}.tsv").read_bytes()
        assert got["auto"] == got["tsv"]

    def test_hash_strategy_scales_linearly(self, tmp_path, monkeypatch):
        """The hash assignment costs a lookup per key, not a copy of
        every key seen so far per block: with many small blocks it
        partitions about as fast as round-robin."""
        import time
        paths = _write_numeric_pair(tmp_path, n_edges=40000,
                                    n_vertices=500)
        monkeypatch.setattr(io_mod, "TSV_CHUNK_CHARS", 2048)  # ~300 blocks

        def seconds(strategy):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                partition_tsv_pair(*paths, 4, tmp_path / strategy,
                                   shard_format="coded", strategy=strategy)
                best = min(best, time.perf_counter() - started)
            return best

        assert seconds("hash") < 2.5 * seconds("round_robin") + 0.2
