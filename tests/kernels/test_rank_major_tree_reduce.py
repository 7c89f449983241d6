"""Rank-major CSF tree reduction: bit-identical to the row-major layout.

The CSF kernel keeps its scratch as ``(R, nnz)`` and reduces every tree
level with ``reduceat(axis=1)``.  These tests pin it, byte for byte, to a
frozen copy of the row-major ``(nnz, R)`` tree reduction it replaced, over
orders, dtypes, slab sizes, index dtypes, factor memory layouts and trees
whose root ids repeat.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.core.splitting import SplitConfig
from repro.kernels.csf_mttkrp import (
    _tree_reduce,
    csf_mttkrp,
    rank_major,
    segment_sum,
)
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.util.errors import TensorFormatError
from repro.util.prng import default_rng

RANK = 6

SHAPES = {
    3: (14, 40, 35),
    4: (9, 12, 10, 11),
    5: (5, 6, 7, 5, 6),
}
NNZ = {3: 3_000, 4: 2_500, 5: 2_000}


def _tree_reduce_row_major(values, fids, fptr, mode_order, factors, out):
    """Frozen copy of the row-major tree reduction (``(nnz, R)`` scratch,
    ``np.add.reduceat(axis=0)`` per level) the kernel used before its
    scratch became rank-major.  Do not update it along with the kernel."""
    order = len(mode_order)
    buf = factors[mode_order[-1]][fids[-1]]
    buf *= values[:, None]
    for level in range(order - 2, 0, -1):
        buf = np.add.reduceat(buf, fptr[level][:-1], axis=0)
        buf *= factors[mode_order[level]][fids[level]]
    slice_vals = np.add.reduceat(buf, fptr[0][:-1], axis=0)
    np.add.at(out, fids[0], slice_vals)


def row_major_reference(csf, factors, dtype):
    """Single-pass MTTKRP through the frozen row-major reduction."""
    out = np.zeros((csf.shape[csf.root_mode], RANK), dtype=dtype)
    cast = [np.asarray(f, dtype=dtype) for f in factors]
    _tree_reduce_row_major(csf.values.astype(dtype, copy=False), csf.fids,
                           csf.fptr, csf.mode_order, cast, out)
    return out


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def split_roots(csf):
    """Cut every root entry with two or more children in two, so the tree
    holds repeated root ids (the shape slice splitting produces)."""
    ptr = csf.fptr[0]
    mids = (ptr[:-1] + ptr[1:]) // 2
    new_ptr = np.unique(np.concatenate([ptr, mids[mids > ptr[:-1]]]))
    owner = np.searchsorted(ptr, new_ptr[:-1], side="right") - 1
    return dataclasses.replace(
        csf, fptr=[new_ptr.astype(ptr.dtype)] + list(csf.fptr[1:]),
        fids=[csf.fids[0][owner]] + list(csf.fids[1:]))


def with_index_dtype(csf, dtype):
    return dataclasses.replace(
        csf, fptr=[p.astype(dtype) for p in csf.fptr],
        fids=[f.astype(dtype) for f in csf.fids])


@pytest.fixture(scope="module", params=sorted(SHAPES),
                ids=lambda o: f"order{o}")
def tensor(request):
    order = request.param
    return random_coo(SHAPES[order], NNZ[order], default_rng(40 + order))


def factors_for(shape, layout="c"):
    rng = default_rng(9)
    if layout == "c":
        return [rng.standard_normal((s, RANK)) for s in shape]
    if layout == "f":
        return [np.asfortranarray(rng.standard_normal((s, RANK)))
                for s in shape]
    # strided views into a wider, taller parent
    return [rng.standard_normal((2 * s, RANK + 3))[::2, 1:RANK + 1]
            for s in shape]


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("slab", [None, 1, 37], ids=["single", "s1", "s37"])
def test_csf_matches_row_major_every_mode(tensor, dtype, slab):
    factors = factors_for(tensor.shape)
    for mode in range(tensor.order):
        csf = build_csf(tensor, mode)
        got = csf_mttkrp(csf, factors, dtype=dtype, slab_nnz=slab)
        assert_bit_identical(got, row_major_reference(csf, factors, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("slab", [None, 5], ids=["single", "s5"])
def test_split_trees_with_repeated_roots(tensor, dtype, slab):
    factors = factors_for(tensor.shape)
    bcsf = build_bcsf(tensor, 0, SplitConfig(fiber_threshold=3,
                                             block_nnz=16))
    csf = split_roots(bcsf.csf)
    assert np.unique(csf.fids[0]).size < csf.fids[0].size
    got = csf_mttkrp(csf, factors, dtype=dtype, slab_nnz=slab)
    assert_bit_identical(got, row_major_reference(csf, factors, dtype))
    # the B-CSF entry point runs the same kernel
    got = bcsf.mttkrp(factors, dtype=dtype)
    assert_bit_identical(got, row_major_reference(bcsf.csf, factors, dtype))


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("slab", [None, 11], ids=["single", "s11"])
def test_index_dtypes(tensor, index_dtype, slab):
    factors = factors_for(tensor.shape)
    csf = with_index_dtype(build_csf(tensor, 1), index_dtype)
    assert csf.fids[0].dtype == index_dtype
    got = csf_mttkrp(csf, factors, slab_nnz=slab)
    assert_bit_identical(got, row_major_reference(csf, factors, np.float64))


@pytest.mark.parametrize("layout", ["f", "strided"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
def test_non_contiguous_factors(tensor, layout, dtype):
    factors = factors_for(tensor.shape, layout)
    assert not any(f.flags.c_contiguous for f in factors)
    contiguous = [np.ascontiguousarray(f) for f in factors]
    csf = build_csf(tensor, 0)
    got = csf_mttkrp(csf, factors, dtype=dtype, slab_nnz=29)
    assert_bit_identical(got, row_major_reference(csf, contiguous, dtype))


def test_tree_reduce_direct(tensor):
    """The private reduction itself, on one whole tree, accumulating into
    a non-zero output."""
    factors = factors_for(tensor.shape)
    csf = split_roots(build_csf(tensor, tensor.order - 1))
    start = default_rng(2).standard_normal((tensor.shape[-1], RANK))
    want = start.copy()
    _tree_reduce_row_major(csf.values, csf.fids, csf.fptr, csf.mode_order,
                           factors, want)
    got = start.copy()
    _tree_reduce(csf.values, csf.fids, csf.fptr, csf.mode_order, factors,
                 rank_major(factors, csf.root_mode, csf.nnz), got, True)
    assert_bit_identical(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(40, 3000, 4000), (10, 20, 5000)],
                         ids=["all-gathered", "mixed"])
def test_factors_longer_than_the_tree(shape, dtype):
    """Factors with more rows than the tree has nonzeros are not converted
    whole; their gathered rows are transposed instead."""
    t = random_coo(shape, 1_000, default_rng(5))
    factors = factors_for(shape)
    for mode in range(3):
        csf = build_csf(t, mode)
        converted = rank_major(factors, mode, csf.nnz)
        assert [ft is not None for ft in converted] == [
            m != mode and s <= csf.nnz for m, s in enumerate(shape)]
        for slab in (None, 17):
            got = csf_mttkrp(csf, factors, dtype=dtype, slab_nnz=slab)
            assert_bit_identical(got, row_major_reference(csf, factors,
                                                          dtype))


class TestRankMajor:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    def test_transposed_copies(self, dtype):
        rng = default_rng(4)
        factors = [rng.standard_normal((s, 3)).astype(dtype)
                   for s in (5000, 7, 4097)]
        got = rank_major(factors, 1, 5000)
        assert got[1] is None
        for f, ft in zip(factors, got):
            if ft is None:
                continue
            assert ft.flags.c_contiguous and ft.dtype == dtype
            assert_bit_identical(ft, np.ascontiguousarray(f.T))

    def test_skips_factors_longer_than_the_tree(self):
        factors = [np.ones((s, 2)) for s in (10, 11, 12)]
        got = rank_major(factors, 0, 11)
        assert got[0] is None and got[2] is None
        assert got[1].shape == (2, 11)


class TestSegmentSumAxis:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("max_len", [1, 2, 7, 9, 64, 300, 5000])
    def test_axis1_is_axis0_transposed(self, dtype, max_len):
        rng = default_rng(max_len)
        lengths = rng.integers(1, max_len + 1, size=40)
        lengths[0] = max_len
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        # wide dynamic range, so any change of summation order shows
        data = (rng.standard_normal((int(ptr[-1]), 5))
                * np.exp(8 * rng.standard_normal((int(ptr[-1]), 1))))
        data = data.astype(dtype)
        rows = segment_sum(data, ptr)
        cols = segment_sum(np.ascontiguousarray(data.T), ptr, axis=1)
        assert_bit_identical(np.ascontiguousarray(cols.T), rows)

    def test_axis1_validation(self):
        with pytest.raises(TensorFormatError):
            segment_sum(np.ones((2, 4)), np.array([0, 2, 3]), axis=1)
        with pytest.raises(TensorFormatError):
            segment_sum(np.ones((2, 3)), np.array([0, 0, 3]), axis=1)
        assert segment_sum(np.ones((2, 0)), np.array([0]), axis=1).shape \
            == (2, 0)
