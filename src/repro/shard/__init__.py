"""Out-of-core sharded adjacency construction.

The paper's construction ``A = Eoutᵀ ⊕.⊗ Ein`` contracts over the edge
dimension, so it distributes over any edge partition
``K = K₁ ∪ … ∪ Kₙ``:

    ``A = ⊕ₛ (Eout|Kₛ)ᵀ ⊕.⊗ (Ein|Kₛ)``

exactly when ``⊕`` is associative and commutative — which is what the
Theorem II.1 certification engine already decides.  This package turns
that identity into an engine for edge sets larger than RAM:

* :mod:`repro.shard.source` — adapters turning graphs, edge-tuple
  streams, incidence-array pairs, or TSV-triple files into one edge
  stream;
* :mod:`repro.shard.partition` — single-pass partitioner writing
  on-disk incidence shards plus a JSON manifest (integer-coded binary
  records for numeric TSV pairs, so each file is parsed once);
* :mod:`repro.shard.manifest` — the shard-set layout and its
  ``manifest.json`` round-trip;
* :mod:`repro.shard.executor` — per-shard adjacency construction in
  serial/thread/process workers (op-pairs shipped by registry name via
  :mod:`repro.values.shipping`), results spilled to disk;
* :mod:`repro.shard.merge` — the certification-gated ⊕-merge tree with
  spill-to-disk;
* :mod:`repro.shard.plan` — :class:`ShardedAdjacencyPlan`, the
  plan → execute → result front-end (also behind the ``repro build``
  CLI subcommand).
"""

from repro.shard.manifest import ShardError, ShardInfo, ShardManifest
from repro.shard.source import EdgeRecord, edge_records
from repro.shard.partition import (
    ShardAssigner,
    partition_edge_records,
    partition_tsv_pair,
)
from repro.shard.executor import ShardProduct, execute_shards, load_shard
from repro.shard.merge import (
    check_merge_safety,
    merge_adjacency,
    merge_spilled,
    oplus_fold,
    oplus_union,
)
from repro.shard.plan import (
    ShardedAdjacencyPlan,
    ShardedResult,
    sharded_adjacency,
)

__all__ = [
    "ShardError",
    "ShardInfo",
    "ShardManifest",
    "EdgeRecord",
    "edge_records",
    "ShardAssigner",
    "partition_edge_records",
    "partition_tsv_pair",
    "ShardProduct",
    "execute_shards",
    "load_shard",
    "check_merge_safety",
    "merge_adjacency",
    "merge_spilled",
    "oplus_fold",
    "oplus_union",
    "ShardedAdjacencyPlan",
    "ShardedResult",
    "sharded_adjacency",
]
