"""Tests for HB-CSF (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid import build_hbcsf, partition_slices
from repro.core.splitting import SplitConfig
from repro.tensor.coo import CooTensor
from repro.tensor.csf import build_csf
from repro.tensor.dense import einsum_mttkrp
from tests.conftest import make_factors


def figure4_tensor() -> CooTensor:
    """The Figure 4 worked example: 3 slices, 5 fibers, 8 nonzeros.

    Slice 0 has a single nonzero (COO group), slice 1 has two singleton
    fibers (CSL group), slice 2 has fibers of 2 and 3 nonzeros (CSF group).
    """
    indices = [
        [0, 1, 2],
        [1, 0, 1], [1, 3, 0],
        [2, 0, 0], [2, 0, 3], [2, 2, 1], [2, 2, 2], [2, 2, 3],
    ]
    return CooTensor(indices, np.arange(1.0, 9.0), (3, 4, 4))


class TestPartition:
    def test_figure4_partition(self):
        csf = build_csf(figure4_tensor(), 0)
        part = partition_slices(csf)
        assert part.counts() == {"coo": 1, "csl": 1, "csf": 1}
        assert bool(part.coo_mask[0]) and bool(part.csl_mask[1]) and bool(part.csf_mask[2])

    def test_partition_is_exact(self, skewed3d):
        part = partition_slices(build_csf(skewed3d, 0))
        total = part.coo_mask.astype(int) + part.csl_mask.astype(int) + part.csf_mask.astype(int)
        assert np.all(total == 1)

    def test_empty_tensor(self):
        part = partition_slices(build_csf(CooTensor.empty((2, 3, 4)), 0))
        assert part.counts() == {"coo": 0, "csl": 0, "csf": 0}

    def test_all_singleton_slices(self):
        idx = [[i, i % 3, i % 4] for i in range(6)]
        t = CooTensor(idx, np.ones(6), (6, 3, 4))
        part = partition_slices(build_csf(t, 0))
        assert part.counts() == {"coo": 6, "csl": 0, "csf": 0}

    def test_all_csl_slices(self):
        idx = [[i, j, (i + j) % 5] for i in range(4) for j in range(3)]
        t = CooTensor(idx, np.ones(12), (4, 3, 5))
        part = partition_slices(build_csf(t, 0))
        assert part.counts() == {"coo": 0, "csl": 4, "csf": 0}


class TestBuild:
    def test_figure4_storage(self):
        """Figure 4: COO needs 24 words, CSF 24 words, HB-CSF ~19 words.

        Our accounting (COO slice: 3 words, CSL slice: 2S + 2 per nonzero,
        CSF slice: 2S + 2F + M) gives 3 + 6 + 11 = 20 words for the worked
        example; the paper reports 19 (it appears to charge the CSL slice
        one fewer pointer word).  The qualitative claim — HB-CSF strictly
        below COO and CSF — is what matters and holds.
        """
        t = figure4_tensor()
        csf = build_csf(t, 0)
        hb = build_hbcsf(t, 0)
        assert 3 * t.nnz == 24
        assert csf.index_storage_words() == 24
        assert hb.index_storage_words() == 20
        assert hb.index_storage_words() < csf.index_storage_words()

    def test_group_nnz_sums(self, skewed3d):
        hb = build_hbcsf(skewed3d, 0)
        assert sum(hb.group_nnz().values()) == skewed3d.nnz
        assert hb.nnz == skewed3d.nnz

    def test_roundtrip(self, skewed3d):
        hb = build_hbcsf(skewed3d, 0)
        assert hb.to_coo() == skewed3d

    def test_roundtrip_all_modes_4d(self, small4d):
        for mode in range(4):
            hb = build_hbcsf(small4d, mode)
            assert hb.to_coo() == small4d

    def test_empty_tensor(self):
        hb = build_hbcsf(CooTensor.empty((3, 4, 5)), 0)
        assert hb.nnz == 0
        assert hb.bcsf_group is None
        factors = make_factors((3, 4, 5), 2)
        out = hb.mttkrp(factors, None)
        assert np.all(out == 0.0)

    def test_describe(self, skewed3d):
        d = build_hbcsf(skewed3d, 1).describe()
        assert d["root_mode"] == 1
        assert d["nnz"] == skewed3d.nnz


class TestMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_reference_3d(self, skewed3d, mode):
        factors = make_factors(skewed3d.shape, 8, seed=31)
        hb = build_hbcsf(skewed3d, mode)
        got = hb.mttkrp(factors)
        want = einsum_mttkrp(skewed3d, factors, mode)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_reference_4d(self, small4d, factors4d, mode):
        hb = build_hbcsf(small4d, mode)
        got = hb.mttkrp(factors4d)
        want = einsum_mttkrp(small4d, factors4d, mode)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_figure4_value(self):
        t = figure4_tensor()
        factors = make_factors(t.shape, 6, seed=5)
        got = build_hbcsf(t, 0).mttkrp(factors)
        want = einsum_mttkrp(t, factors, 0)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_agreement_across_formats(self, skewed3d):
        from repro.core.bcsf import build_bcsf
        from repro.kernels.coo_mttkrp import coo_mttkrp

        factors = make_factors(skewed3d.shape, 16, seed=6)
        hb = build_hbcsf(skewed3d, 0).mttkrp(factors)
        bc = build_bcsf(skewed3d, 0).mttkrp(factors)
        co = coo_mttkrp(skewed3d, factors, 0)
        np.testing.assert_allclose(hb, bc, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(hb, co, rtol=1e-9, atol=1e-9)

    def test_split_config_does_not_change_result(self, skewed3d):
        factors = make_factors(skewed3d.shape, 4, seed=7)
        a = build_hbcsf(skewed3d, 0, SplitConfig.disabled()).mttkrp(factors)
        b = build_hbcsf(skewed3d, 0, SplitConfig(fiber_threshold=2, block_nnz=8)).mttkrp(factors)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


class TestStorage:
    def test_never_worse_than_csf(self, skewed3d, small3d, small4d):
        for t in (skewed3d, small3d, small4d):
            for mode in range(t.order):
                csf = build_csf(t, mode)
                hb = build_hbcsf(t, mode, SplitConfig.disabled())
                assert hb.index_storage_words() <= csf.index_storage_words()

    def test_storage_within_paper_bounds(self, skewed3d):
        """HB-CSF storage is between 1M and 3M index words (Section V-B)."""
        hb = build_hbcsf(skewed3d, 0, SplitConfig.disabled())
        m = skewed3d.nnz
        assert 1 * m <= hb.index_storage_words() <= 3 * m + 2 * hb.group_slices()["csf"] + 2 * hb.group_slices()["csl"]
