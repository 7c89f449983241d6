"""COO MTTKRP: one ``np.add.at`` accumulator, checked against frozen copies
of the three accumulators it replaced.

The kernel used to pick among ``add_at``, a stable-argsort plus
``np.add.reduceat`` segment sum (``sort``) and a per-column
``np.bincount`` (``bincount``), with an ``"auto"`` rule that chose ``sort``
from 2048 nonzeros on.  These tests pin the single accumulator to frozen
copies of that kernel:

* on distinct output rows — every HB-CSF COO group (Algorithm 5 routes only
  single-nonzero slices there), of orders 2-4, built in memory and from
  shards — it equals the frozen ``"auto"`` output bit for bit (floats
  compared through ``view(uint64)``), on both sides of the 2048 threshold;
* across several ``np.add.at`` slabs, with rows that repeat inside and
  across slabs, and into a non-contiguous ``out``, it equals the frozen
  ``add_at`` bit for bit;
* a pre-filled ``out`` is accumulated into, not cleared.

The duplicated-row checks against the frozen ``bincount`` (bit for bit)
and ``sort`` (``allclose``: the segment sum reassociates) live in
``tests/kernels/test_coo_mttkrp.py::TestAccumulationMethods``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid import build_hbcsf
from repro.kernels.coo_mttkrp import SLAB_NNZ, coo_mttkrp
from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE
from repro.tensor.dense import _check_factors
from repro.tensor.shards import save_sharded
from repro.util.prng import default_rng

from tests.conftest import make_factors

SHARD_NNZ = 997


# --------------------------------------------------------------------- #
# frozen references — do not update them along with the kernel
# --------------------------------------------------------------------- #
SORT_MIN_NNZ_REFERENCE = 2048


def _accumulate_add_at_reference(out, idx, acc) -> None:
    np.add.at(out, idx, acc)


def _accumulate_sort_reference(out, idx, acc) -> None:
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    sorted_acc = acc[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    out[sorted_idx[starts]] += np.add.reduceat(sorted_acc, starts, axis=0)


def _accumulate_bincount_reference(out, idx, acc) -> None:
    rows = out.shape[0]
    for r in range(acc.shape[1]):
        out[:, r] += np.bincount(idx, weights=acc[:, r], minlength=rows)


_ACCUMULATORS_REFERENCE = {
    "add_at": _accumulate_add_at_reference,
    "sort": _accumulate_sort_reference,
    "bincount": _accumulate_bincount_reference,
}


def coo_mttkrp_reference(tensor, factors, mode, out=None, method="auto",
                         dtype=np.float64) -> np.ndarray:
    """Frozen copy of the three-accumulator ``coo_mttkrp``."""
    rank = _check_factors(tensor.shape, factors, mode)
    if out is None:
        out = np.zeros((tensor.shape[mode], rank), dtype=dtype)
    if tensor.nnz == 0:
        return out
    values = tensor.values.astype(out.dtype, copy=False)
    acc = None
    for m in range(tensor.order):
        if m == mode:
            continue
        gathered = np.asarray(factors[m], dtype=out.dtype)[tensor.indices[:, m]]
        if acc is None:
            acc = values[:, None] * gathered
        else:
            acc *= gathered
    if acc is None:
        acc = np.repeat(values[:, None], rank, axis=1)
    if method == "auto":
        method = ("sort" if tensor.nnz >= SORT_MIN_NNZ_REFERENCE
                  else "add_at")
    _ACCUMULATORS_REFERENCE[method](out, tensor.indices[:, mode], acc)
    return out


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.uint64 if got.dtype == np.float64 else np.uint32
    assert np.array_equal(got.view(bits), want.view(bits))


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def _random(shape, nnz, seed) -> CooTensor:
    rng = default_rng(seed)
    idx = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    return CooTensor(idx.astype(INDEX_DTYPE),
                     rng.standard_normal(nnz).astype(VALUE_DTYPE), shape)


#: hypersparse tensors, so most slices of every mode hold one nonzero and
#: land in the HB-CSF COO group: the large ones put >= 2048 nonzeros there
#: (the frozen ``"auto"`` picks ``sort``), the small ones fewer
#: (``add_at``).
HYPERSPARSE = {
    "order2-large": lambda: _random((60_000, 50_000), 3_000, 41),
    "order3-large": lambda: _random((40_000, 30_000, 50_000), 4_000, 42),
    "order4-large": lambda: _random((30_000, 20_000, 40_000, 9), 3_000, 43),
    "order3-small": lambda: _random((5_000, 4_000, 6_000), 600, 44),
}


@pytest.fixture(params=sorted(HYPERSPARSE), scope="module")
def hypersparse(request, tmp_path_factory):
    tensor = HYPERSPARSE[request.param]()
    root = tmp_path_factory.mktemp("coo-ref") / request.param
    return tensor, save_sharded(tensor, root, shard_nnz=SHARD_NNZ)


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("source", ["memory", "sharded"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hbcsf_coo_groups_match_frozen_auto(hypersparse, source, dtype):
    tensor, sharded = hypersparse
    src = tensor if source == "memory" else sharded
    factors = [f.astype(dtype) for f in make_factors(tensor.shape, 8,
                                                     seed=7)]
    for mode in range(tensor.order):
        group = build_hbcsf(src, mode).coo_group
        if group.nnz == 0:
            continue
        rows = group.indices[:, mode]
        assert np.unique(rows).size == group.nnz  # Algorithm 5: distinct
        assert_bits_equal(
            coo_mttkrp(group, factors, mode, dtype=dtype),
            coo_mttkrp_reference(group, factors, mode, dtype=dtype))


def test_hbcsf_coo_groups_cover_both_sides_of_the_threshold():
    """The inputs above reach the frozen ``sort`` path and the frozen
    ``add_at`` path."""
    sizes = [build_hbcsf(make(), 0).coo_group.nnz
             for make in HYPERSPARSE.values()]
    assert max(sizes) >= SORT_MIN_NNZ_REFERENCE
    assert 0 < min(sizes) < SORT_MIN_NNZ_REFERENCE


def test_prefilled_out_is_accumulated():
    """On an HB-CSF COO group a pre-filled ``out`` gains exactly the frozen
    ``add_at`` and ``sort`` sums: it is accumulated into, not cleared."""
    tensor = HYPERSPARSE["order3-small"]()
    group = build_hbcsf(tensor, 0).coo_group
    factors = make_factors(tensor.shape, 8, seed=3)
    base = default_rng(5).standard_normal((tensor.shape[0], 8))
    out = base.copy()
    got = coo_mttkrp(group, factors, 0, out=out)
    assert got is out
    for method in ("add_at", "sort"):
        assert_bits_equal(got, coo_mttkrp_reference(group, factors, 0,
                                                    out=base.copy(),
                                                    method=method))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_slabs_match_frozen_add_at(dtype, layout):
    """Rows repeat within and across slab edges; a Fortran-ordered ``out``
    has no flat view and takes the row-wise ``np.add.at``."""
    tensor = _random((50, 30, 40), 3 * SLAB_NNZ + 5, 45)
    factors = [f.astype(dtype) for f in make_factors(tensor.shape, 8,
                                                     seed=13)]
    for mode in range(tensor.order):
        base = default_rng(mode).standard_normal((tensor.shape[mode], 8))
        out = np.array(base, dtype=dtype, order=layout)
        got = coo_mttkrp(tensor, factors, mode, out=out)
        assert got is out
        assert_bits_equal(np.ascontiguousarray(got), coo_mttkrp_reference(
            tensor, factors, mode, out=base.astype(dtype), method="add_at"))
