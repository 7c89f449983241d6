"""Micro-benchmarks of the host-side kernels and format builders.

Unlike the per-figure benchmarks (which time the experiment drivers), these
measure the real wall-clock cost of the library's own building blocks.
Every case routes through the :mod:`repro.bench` target registry
(``run_target``) so pytest-benchmark and ``repro-bench`` time exactly the
same closures — no duplicated setup/timing logic.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_target


class TestFormatConstruction:
    def test_bench_build_csf(self, benchmark, deli_tensor):
        csf = run_target(benchmark, "build.csf", deli_tensor)
        assert csf.nnz == deli_tensor.nnz

    def test_bench_build_bcsf(self, benchmark, darpa_tensor):
        bcsf = run_target(benchmark, "build.b-csf", darpa_tensor)
        assert bcsf.max_nnz_per_fiber() <= 128

    def test_bench_build_hbcsf(self, benchmark, frm_tensor):
        hb = run_target(benchmark, "build.hb-csf", frm_tensor)
        assert hb.nnz == frm_tensor.nnz


class TestExactMttkrp:
    @pytest.mark.parametrize("target", ["kernel.coo"])
    def test_bench_coo_mttkrp(self, benchmark, deli_tensor, target):
        out = run_target(benchmark, target, deli_tensor)
        assert out.shape[0] == deli_tensor.shape[0]
        assert np.isfinite(out).all()

    def test_bench_csf_mttkrp(self, benchmark, deli_tensor):
        out = run_target(benchmark, "kernel.csf", deli_tensor)
        assert out.shape[0] == deli_tensor.shape[0]
        assert np.isfinite(out).all()

    def test_bench_bcsf_mttkrp(self, benchmark, darpa_tensor):
        out = run_target(benchmark, "kernel.b-csf", darpa_tensor)
        assert out.shape[0] == darpa_tensor.shape[0]
        assert np.isfinite(out).all()

    def test_bench_hbcsf_mttkrp(self, benchmark, nell2_tensor):
        out = run_target(benchmark, "kernel.hb-csf", nell2_tensor)
        assert out.shape[0] == nell2_tensor.shape[0]
        assert np.isfinite(out).all()

    def test_bench_public_api_mttkrp(self, benchmark, darpa_tensor):
        out = run_target(benchmark, "kernel.dispatch", darpa_tensor)
        assert out.shape[0] == darpa_tensor.shape[0]
        assert np.isfinite(out).all()
