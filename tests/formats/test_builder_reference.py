"""CSF-family builders: bit-identical to frozen copies of the builders they
replaced.

``build_csf`` now assembles the tree from sorted chunks in two passes and
``build_hbcsf`` scans the chunks once and routes every slice straight into
its group.  These tests pin both, byte for byte (floats through
``view(uint64)``), to frozen copies of the previous in-memory builders: the
boundary-flag plus ``searchsorted`` ``build_csf``, and the ``build_hbcsf``
that built a full CSF, carved the groups back out through
``_extract_subtensor`` and built a second CSF for the B-CSF group.

Inputs are in-memory and sharded (``shard_nnz=197``, so fibers and slices
cross chunk edges), of orders 2, 3 and 4, with duplicate coordinates, empty,
and with partitions that are all-COO, all-CSL and all-B-CSF.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.core.csl import build_csl_group, empty_csl_group
from repro.core.hybrid import HbcsfTensor, SlicePartition, build_hbcsf
from repro.core.splitting import SplitConfig
from repro.formats import get_format
from repro.tensor.coo import (CooTensor, INDEX_DTYPE, VALUE_DTYPE,
                              csf_mode_ordering)
from repro.tensor.csf import CsfTensor, build_csf
from repro.tensor.shards import save_sharded
from repro.util.errors import DimensionError
from repro.util.prng import default_rng

SHARD_NNZ = 197


# --------------------------------------------------------------------- #
# frozen references — do not update them along with the builders
# --------------------------------------------------------------------- #
def build_csf_reference(tensor, root_mode=0, mode_order=None) -> CsfTensor:
    """Frozen copy of the in-memory ``build_csf`` (boundary flags per
    level, pointers by ``searchsorted`` over the child starts)."""
    if mode_order is None:
        mode_order = csf_mode_ordering(tensor.order, root_mode)
    else:
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(tensor.order)):
            raise DimensionError(
                f"{mode_order} is not a permutation of 0..{tensor.order - 1}"
            )
    if tensor.order < 2:
        raise DimensionError("CSF requires an order >= 2 tensor")

    sorted_t = tensor.deduplicated().sorted_by_modes(mode_order)
    idx = sorted_t.indices
    vals = sorted_t.values
    order = tensor.order

    fids: list[np.ndarray] = []
    fptr: list[np.ndarray] = []

    if sorted_t.nnz == 0:
        for level in range(order - 1):
            fids.append(np.zeros(0, dtype=INDEX_DTYPE))
            fptr.append(np.zeros(1, dtype=INDEX_DTYPE))
        fids.append(np.zeros(0, dtype=INDEX_DTYPE))
        return CsfTensor(tensor.shape, mode_order, fptr, fids,
                         np.zeros(0, dtype=VALUE_DTYPE))

    nnz = sorted_t.nnz
    new_node = np.zeros(nnz, dtype=bool)
    new_node[0] = True
    for level in range(order - 1):
        col = idx[:, mode_order[level]]
        if level == 0:
            boundary = np.empty(nnz, dtype=bool)
            boundary[0] = True
            boundary[1:] = col[1:] != col[:-1]
        else:
            boundary = new_node.copy()
            boundary[1:] |= col[1:] != col[:-1]
        new_node = boundary
        starts = np.flatnonzero(boundary)
        fids.append(col[starts].astype(INDEX_DTYPE))
        if level == 0:
            level_starts = [starts]
        else:
            level_starts.append(starts)

    fids.append(idx[:, mode_order[-1]].astype(INDEX_DTYPE))

    for level in range(order - 2):
        parent_starts = level_starts[level]
        child_starts = level_starts[level + 1]
        ptr = np.searchsorted(child_starts, parent_starts)
        ptr = np.append(ptr, child_starts.shape[0]).astype(INDEX_DTYPE)
        fptr.append(ptr)
    last_starts = level_starts[order - 2]
    ptr = np.append(last_starts, nnz).astype(INDEX_DTYPE)
    fptr.append(ptr)

    return CsfTensor(tensor.shape, mode_order, fptr, fids, vals.copy())


def partition_slices_reference(csf: CsfTensor) -> SlicePartition:
    """Frozen copy of ``partition_slices`` with its own Algorithm 5 masks."""
    num_slices = csf.num_slices
    if num_slices == 0:
        empty = np.zeros(0, dtype=bool)
        return SlicePartition(empty, empty.copy(), empty.copy())

    nnz_per_slice = csf.nnz_per_slice()
    fiber_nnz = csf.nnz_per_fiber()
    slice_of_fiber = csf.slice_of_fiber()

    max_fiber_len = np.zeros(num_slices, dtype=np.int64)
    np.maximum.at(max_fiber_len, slice_of_fiber, fiber_nnz)

    coo_mask = nnz_per_slice == 1
    csl_mask = (~coo_mask) & (max_fiber_len == 1)
    csf_mask = ~(coo_mask | csl_mask)
    partition = SlicePartition(coo_mask, csl_mask, csf_mask)
    partition.validate()
    return partition


def _extract_subtensor(csf: CsfTensor, mask: np.ndarray) -> CooTensor:
    """Frozen: COO tensor restricted to the slices selected by ``mask``."""
    leaf_slice = csf.node_index_of_leaf(0)
    keep = np.asarray(mask, dtype=bool)[leaf_slice]
    full = csf.to_coo()
    return CooTensor(full.indices[keep], full.values[keep], csf.shape,
                     validate=False)


def build_hbcsf_reference(tensor, mode=0, config=None) -> HbcsfTensor:
    """Frozen copy of the in-memory ``build_hbcsf``: full CSF, partition,
    carve-out of the COO and B-CSF groups, a second CSF for B-CSF."""
    config = config or SplitConfig()
    csf = build_csf_reference(tensor, mode)
    partition = partition_slices_reference(csf)

    if not partition.coo_mask.any() or csf.nnz == 0:
        coo_group = CooTensor.empty(csf.shape)
    else:
        coo_group = _extract_subtensor(csf, partition.coo_mask)

    if partition.csl_mask.any():
        csl_group = build_csl_group(csf, partition.csl_mask)
    else:
        csl_group = empty_csl_group(csf.shape, csf.mode_order)

    bcsf_group = None
    if partition.csf_mask.any():
        remaining = _extract_subtensor(csf, partition.csf_mask)
        bcsf_group = build_bcsf(build_csf_reference(remaining, mode), mode,
                                config)

    return HbcsfTensor(shape=csf.shape, mode_order=csf.mode_order,
                       partition=partition, coo_group=coo_group,
                       csl_group=csl_group, bcsf_group=bcsf_group,
                       config=config)


# --------------------------------------------------------------------- #
# bit-identity
# --------------------------------------------------------------------- #
def assert_bit_identical(got, want, path: str = "rep") -> None:
    """Recursive comparison: arrays by dtype, shape and bits (floats
    through an unsigned view, so ``-0.0`` and NaN payloads count)."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert got.dtype == want.dtype, f"{path}: {got.dtype} != {want.dtype}"
        assert got.shape == want.shape, f"{path}: {got.shape} != {want.shape}"
        if want.dtype.kind == "f":
            view = np.uint64 if want.dtype.itemsize == 8 else np.uint32
            np.testing.assert_array_equal(got.view(view), want.view(view),
                                          err_msg=path)
        else:
            np.testing.assert_array_equal(got, want, err_msg=path)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_bit_identical(getattr(got, f.name), getattr(want, f.name),
                                 f"{path}.{f.name}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bit_identical(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def _random_with_duplicates(shape, nnz, seed) -> CooTensor:
    rng = default_rng(seed)
    idx = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    return CooTensor(idx.astype(INDEX_DTYPE),
                     rng.standard_normal(nnz).astype(VALUE_DTYPE), shape)


def _all_coo(dim=40, seed=3) -> CooTensor:
    """Every coordinate column a permutation: one nonzero per slice of
    every mode."""
    rng = default_rng(seed)
    idx = np.stack([rng.permutation(dim) for _ in range(3)], axis=1)
    return CooTensor(idx, rng.standard_normal(dim), (dim, dim, dim))


def _all_csl(shape=(30, 20, 25), nnz=240, seed=31) -> CooTensor:
    """Mode-0 slices of >= 2 nonzeros whose fibers are all singletons:
    unique (mode-0, mode-1) pairs, each slice hit at least twice."""
    rng = default_rng(seed)
    per_slice = nnz // shape[0]
    rows = []
    for i in range(shape[0]):
        js = rng.choice(shape[1], size=per_slice, replace=False)
        rows.append(np.stack([np.full(per_slice, i), js,
                              rng.integers(0, shape[2], size=per_slice)],
                             axis=1))
    idx = np.concatenate(rows).astype(INDEX_DTYPE)
    perm = rng.permutation(idx.shape[0])
    return CooTensor(idx[perm], rng.standard_normal(idx.shape[0]), shape)


def _all_bcsf(shape=(6, 4, 50), seed=5) -> CooTensor:
    """Dense enough that every fiber of every mode holds >= 2 nonzeros;
    mode-2 fibers run to 50, past a fiber threshold of 16."""
    rng = default_rng(seed)
    idx = np.argwhere(np.ones(shape, dtype=bool))
    return CooTensor(idx, rng.standard_normal(idx.shape[0]), shape)


TENSORS = {
    "order2": lambda: _random_with_duplicates((40, 30), 500, 11),
    "order3": lambda: _random_with_duplicates((19, 14, 23), 1_100, 21),
    "order4": lambda: _random_with_duplicates((9, 8, 11, 7), 900, 22),
    "duplicates": lambda: _random_with_duplicates((13, 11, 17), 2_500, 23),
    "empty": lambda: CooTensor.empty((4, 5, 6)),
    "all-coo": _all_coo,
    "all-csl": _all_csl,
    "all-bcsf": _all_bcsf,
}

SPLIT = SplitConfig(fiber_threshold=16, block_nnz=64)


@pytest.fixture(params=sorted(TENSORS), scope="module")
def case(request, tmp_path_factory):
    tensor = TENSORS[request.param]()
    root = tmp_path_factory.mktemp("ref") / request.param
    return request.param, tensor, save_sharded(tensor, root,
                                               shard_nnz=SHARD_NNZ)


@pytest.fixture(params=["memory", "sharded"])
def source(request, case):
    name, tensor, sharded = case
    return name, tensor, tensor if request.param == "memory" else sharded


class TestAgainstFrozenReference:
    def test_build_csf(self, source):
        _, tensor, src = source
        for mode in range(tensor.order):
            assert_bit_identical(build_csf(src, mode),
                                 build_csf_reference(tensor, mode))

    def test_build_csf_explicit_mode_order(self, source):
        _, tensor, src = source
        order = tuple(reversed(range(tensor.order)))
        assert_bit_identical(build_csf(src, mode_order=order),
                             build_csf_reference(tensor, mode_order=order))

    def test_build_hbcsf(self, source):
        _, tensor, src = source
        for mode in range(tensor.order):
            for config in (None, SPLIT):
                assert_bit_identical(build_hbcsf(src, mode, config),
                                     build_hbcsf_reference(tensor, mode,
                                                           config))

    def test_registry_formats(self, source):
        _, tensor, src = source
        for mode in range(tensor.order):
            ref_csf = build_csf_reference(tensor, mode)
            assert_bit_identical(get_format("csf").build(src, mode),
                                 ref_csf)
            assert_bit_identical(get_format("b-csf").build(src, mode, SPLIT),
                                 build_bcsf(ref_csf, mode, SPLIT))
            assert_bit_identical(get_format("hb-csf").build(src, mode, SPLIT),
                                 build_hbcsf_reference(tensor, mode, SPLIT))



def test_registry_csl(tmp_path):
    """CSL represents mode 0 of the all-CSL tensor only."""
    tensor = _all_csl()
    want = build_csl_group(build_csf_reference(tensor, 0))
    sharded = save_sharded(tensor, tmp_path / "csl", shard_nnz=SHARD_NNZ)
    for src in (tensor, sharded):
        assert_bit_identical(get_format("csl").build(src, 0), want)


def test_partitions_cover_each_group():
    """The named inputs really exercise one group each."""
    for name, group in (("all-coo", "coo"), ("all-csl", "csl"),
                        ("all-bcsf", "csf")):
        tensor = TENSORS[name]()
        counts = build_hbcsf(tensor, 0).group_slices()
        assert counts[group] == sum(counts.values()) > 0, (name, counts)
