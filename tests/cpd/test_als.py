"""Tests for CPD-ALS (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpd.als import cp_als
from repro.cpd.fit import tensor_norm
from repro.cpd.init import init_factors
from repro.tensor.coo import CooTensor
from repro.tensor.shards import save_sharded
from repro.util.errors import ValidationError
from repro.util.prng import default_rng


def low_rank_tensor(shape=(8, 9, 10), rank=3, seed=0) -> CooTensor:
    """A dense low-rank tensor stored sparsely (every entry a 'nonzero')."""
    rng = default_rng(seed)
    factors = [rng.random((s, rank)) + 0.1 for s in shape]
    dense = np.einsum("ir,jr,kr->ijk", *factors)
    return CooTensor.from_dense(dense)


class TestConvergence:
    def test_recovers_low_rank_tensor(self):
        t = low_rank_tensor()
        result = cp_als(t, rank=3, n_iters=60, tol=1e-9, rng=1)
        assert result.final_fit > 0.999

    def test_fit_monotone_after_first_iterations(self):
        t = low_rank_tensor(seed=2)
        result = cp_als(t, rank=3, n_iters=25, tol=0.0, rng=3)
        fits = np.array(result.fits)
        assert np.all(np.diff(fits[1:]) > -1e-6)

    def test_converged_flag(self):
        t = low_rank_tensor(seed=0)
        result = cp_als(t, rank=3, n_iters=200, tol=1e-5, rng=1)
        assert result.converged
        assert result.iterations < 200

    def test_reconstruction_error_matches_fit(self):
        t = low_rank_tensor(seed=4)
        result = cp_als(t, rank=3, n_iters=50, tol=1e-10, rng=5)
        dense = t.to_dense()
        err = np.linalg.norm(result.reconstruct() - dense) / np.linalg.norm(dense)
        assert err == pytest.approx(1.0 - result.final_fit, abs=1e-6)


class TestFormats:
    @pytest.mark.parametrize("fmt", ["coo", "csf", "b-csf", "hb-csf"])
    def test_formats_give_same_result(self, fmt):
        t = low_rank_tensor(seed=6)
        init = init_factors(t, 3, rng=7)
        ref = cp_als(t, 3, n_iters=5, tol=0.0, format="coo", init=init)
        other = cp_als(t, 3, n_iters=5, tol=0.0, format=fmt, init=init)
        assert other.final_fit == pytest.approx(ref.final_fit, rel=1e-8)
        for a, b in zip(ref.factors, other.factors):
            np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9)

    def test_sparse_tensor_runs(self, skewed3d):
        result = cp_als(skewed3d, rank=4, n_iters=3, tol=0.0, rng=8)
        assert result.iterations == 3
        assert len(result.fits) == 3
        assert result.mttkrp_seconds > 0
        assert result.preprocessing_seconds > 0

    def test_4d(self, small4d):
        result = cp_als(small4d, rank=3, n_iters=3, tol=0.0, rng=9)
        assert len(result.factors) == 4
        assert all(f.shape[1] == 3 for f in result.factors)

    def test_compute_fit_disabled(self, small3d):
        result = cp_als(small3d, rank=2, n_iters=2, tol=0.0, compute_fit=False, rng=10)
        assert result.fits == []
        assert result.iterations == 2


class TestShardedInput:
    """``cp_als`` accepts a :class:`ShardedCooTensor` directly: the plans
    stream the shards and the norm is streamed shard by shard."""

    def test_tensor_norm_streams_shards(self, skewed3d, tmp_path):
        sharded = save_sharded(skewed3d, tmp_path / "s", shard_nnz=97)
        assert sharded.num_shards > 1
        assert tensor_norm(sharded) == pytest.approx(tensor_norm(skewed3d),
                                                     rel=1e-12)

    @pytest.mark.parametrize("fmt", ["coo", "csf", "b-csf", "hb-csf"])
    def test_matches_in_memory(self, skewed3d, tmp_path, fmt):
        sharded = save_sharded(skewed3d, tmp_path / "s", shard_nnz=97)
        ref = cp_als(skewed3d, 4, n_iters=4, tol=0.0, format=fmt, rng=12)
        got = cp_als(sharded, 4, n_iters=4, tol=0.0, format=fmt, rng=12)
        assert got.iterations == ref.iterations == 4
        np.testing.assert_array_equal(got.weights, ref.weights)
        for a, b in zip(got.factors, ref.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(got.fits, ref.fits, rtol=1e-12)


class TestValidation:
    def test_empty_tensor_rejected(self):
        with pytest.raises(ValidationError):
            cp_als(CooTensor.empty((2, 3, 4)), rank=2)

    def test_bad_iters(self, small3d):
        with pytest.raises(ValidationError):
            cp_als(small3d, rank=2, n_iters=0)

    def test_bad_init_shapes(self, small3d):
        bad = [np.ones((2, 2))] * 3
        with pytest.raises(ValidationError):
            cp_als(small3d, rank=2, init=bad)

    def test_bad_init_count(self, small3d):
        with pytest.raises(ValidationError):
            cp_als(small3d, rank=2, init=[np.ones((small3d.shape[0], 2))])

    def test_explicit_init_used(self, small3d):
        init = init_factors(small3d, 2, rng=11)
        a = cp_als(small3d, 2, n_iters=3, tol=0.0, init=init)
        b = cp_als(small3d, 2, n_iters=3, tol=0.0, init=init)
        np.testing.assert_allclose(a.weights, b.weights)
