"""Partitioner invariants: shards are a row-disjoint, cost-balanced cover."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import build_plan, get_format, plan_cache
from repro.parallel.partition import OVERSUBSCRIPTION, shard_plan_for

from tests.parallel.conftest import singleton_fiber_tensor

WORKER_COUNTS = (2, 4)


def _plans(name, tensor, mode, workers):
    spec = get_format(name)
    built = build_plan(tensor, name, mode)
    return spec, built, spec.sharder(built.rep, mode, workers)


def _touched_rows(shard, mode):
    """The output rows a shard writes, read structurally from its rep."""
    if shard.kind == "coo":
        return np.unique(shard.rep.indices[:, mode])
    if shard.kind == "csf":
        return np.unique(shard.rep.fids[0])
    if shard.kind == "csl":
        return np.unique(shard.rep.slice_inds)
    raise AssertionError(f"unknown shard kind {shard.kind!r}")


def _shard_nnz(shard):
    if shard.kind == "coo":
        return shard.rep.nnz
    return shard.rep.values.shape[0]


@pytest.mark.parametrize("name", ["coo", "csf", "b-csf", "hb-csf", "csl"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_partition_invariants(name, workers, skewed3d):
    tensor = singleton_fiber_tensor() if name == "csl" else skewed3d
    mode = 0
    spec, built, plan = _plans(name, tensor, mode, workers)

    # identity of the plan cell
    assert plan.format == name
    assert plan.mode == mode
    assert plan.num_workers == workers
    assert plan.total_nnz == tensor.nnz

    # the shards cover every nonzero exactly once
    assert sum(_shard_nnz(s) for s in plan.shards) == tensor.nnz
    assert np.isclose(sum(s.cost for s in plan.shards), tensor.nnz)

    # output rows are pairwise disjoint across shards and cover exactly
    # the rows the serial kernel writes — the bit-identity precondition
    seen = np.empty(0, dtype=np.int64)
    for shard in plan.shards:
        rows = _touched_rows(shard, mode)
        assert rows.size == np.unique(rows).size
        assert not np.intersect1d(seen, rows).size
        seen = np.concatenate((seen, rows))
    assert np.array_equal(np.sort(seen),
                          np.unique(tensor.indices[:, mode]))

    # the LPT schedule is consistent and balanced
    assert len(plan.assignment) == plan.num_shards
    assert all(0 <= w < workers for w in plan.assignment)
    loads = np.zeros(workers)
    np.add.at(loads, np.asarray(plan.assignment),
              [s.cost for s in plan.shards])
    assert np.allclose(loads, plan.loads)
    cmax = max((s.cost for s in plan.shards), default=0.0)
    assert plan.makespan <= tensor.nnz / workers + cmax + 1e-9

    # oversubscription bounds the shard count (HB-CSF composes up to
    # three group partitions)
    groups = 3 if name == "hb-csf" else 1
    assert plan.num_shards <= groups * workers * OVERSUBSCRIPTION

    # worker buckets preserve shard-index (row) order
    index_of = {id(s): i for i, s in enumerate(plan.shards)}
    for bucket in plan.worker_shards():
        order = [index_of[id(s)] for s in bucket]
        assert order == sorted(order)


@pytest.mark.parametrize("name", ["coo", "csf", "b-csf", "hb-csf", "csl"])
def test_cached_plan_footprint_counts_pinned_arrays(name, skewed3d):
    """A cached ShardPlan pins the parent's index/value arrays through its
    shard views, so the plan cache's byte estimate must charge it roughly
    the parent's footprint — not just the rebased pointer copies."""
    from repro.formats.plan_cache import _estimate_rep_bytes

    tensor = singleton_fiber_tensor() if name == "csl" else skewed3d
    spec, built, plan = _plans(name, tensor, 0, 4)
    assert plan.nnz == tensor.nnz
    # the values term alone (8 bytes/nonzero) must be present
    assert _estimate_rep_bytes(plan) >= 8 * tensor.nnz
    # view-pinned index words dominate the pointer copies for every format
    # that stores per-nonzero indices (all of them)
    assert plan.index_storage_words() >= tensor.nnz


def test_shard_plan_for_memoises_per_rep(small3d):
    spec = get_format("csf")
    built = build_plan(small3d, "csf", 0)
    first = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    again = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    assert again is first
    # distinct worker counts are distinct plans
    other = shard_plan_for(spec, built.rep, 0, 4, plan_key=built.key)
    assert other is not first
    assert other.num_workers == 4


def test_shard_plan_stored_in_plan_cache(small3d):
    spec = get_format("b-csf")
    built = build_plan(small3d, "b-csf", 0)
    plan = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    entry = plan_cache().get(built.key + ("shards", 2))
    assert entry is not None
    assert entry.rep is plan


def test_shard_plan_without_key_is_memo_only(small3d):
    spec = get_format("coo")
    built = build_plan(small3d, "coo", 1)
    before = len(plan_cache())
    plan = shard_plan_for(spec, built.rep, 1, 2)
    assert len(plan_cache()) == before
    assert shard_plan_for(spec, built.rep, 1, 2) is plan


def test_discard_format_evicts_shard_plans(small3d):
    from repro.formats.plan_cache import plan_cache as cache_fn

    spec = get_format("csf")
    built = build_plan(small3d, "csf", 0)
    shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    cache = cache_fn()
    assert cache.get(built.key + ("shards", 2)) is not None
    cache.discard(format="csf")
    assert cache.get(built.key + ("shards", 2)) is None
