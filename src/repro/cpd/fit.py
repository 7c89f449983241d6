"""Fit / error computation for CP models.

The relative fit of a CP model ``[[λ; A_0, ..., A_{N-1}]]`` against a sparse
tensor ``X`` is computed without densifying anything, using the standard
identity

    ||X - X̃||² = ||X||² + ||X̃||² - 2 <X, X̃>

where ``||X̃||² = λᵀ (∗_m A_mᵀA_m) λ`` and the inner product is accumulated
from the last MTTKRP of the ALS sweep.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.util.errors import DimensionError

__all__ = ["tensor_norm", "cp_norm", "cp_innerprod", "cp_fit"]


def tensor_norm(tensor: CooTensor) -> float:
    """Frobenius norm of a sparse tensor.

    A :class:`~repro.tensor.shards.ShardedCooTensor` is streamed one shard
    at a time, so its values are never resident at once; the sum of
    squares is associated per shard, so it agrees with the in-memory norm
    to rounding, not bit for bit.
    """
    if not getattr(tensor, "is_sharded", False):
        return float(np.linalg.norm(tensor.values))
    sq = 0.0
    for chunk in tensor.iter_chunks():
        values = np.asarray(chunk.values, dtype=np.float64)
        sq += float(values @ values)
    return float(np.sqrt(sq))


def cp_norm(weights: np.ndarray, factors: list[np.ndarray],
            grams: list[np.ndarray] | None = None) -> float:
    """Frobenius norm of the CP model ``[[weights; factors]]``.

    ``grams`` may supply the precomputed ``A_mᵀA_m`` matrices (one per
    factor) — CPD-ALS maintains exactly these in its inner loop, so the
    per-iteration fit does not redo one matmul per mode.
    """
    rank = factors[0].shape[1]
    if weights.shape != (rank,):
        raise DimensionError(f"weights must have shape ({rank},)")
    gram = np.ones((rank, rank), dtype=np.float64)
    if grams is None:
        for f in factors:
            gram *= f.T @ f
    else:
        if len(grams) != len(factors):
            raise DimensionError("need one Gram matrix per factor")
        for g in grams:
            gram *= g
    value = float(weights @ gram @ weights)
    return float(np.sqrt(max(value, 0.0)))


def cp_innerprod(tensor: CooTensor, weights: np.ndarray,
                 factors: list[np.ndarray],
                 mttkrp_last: np.ndarray | None = None,
                 last_mode: int | None = None) -> float:
    """Inner product ``<X, X̃>``.

    If the MTTKRP of the last updated mode is available (as it is at the end
    of every ALS sweep) the inner product is just
    ``sum(A_last * M_last) @ weights`` — no extra pass over the tensor.
    Otherwise it is accumulated directly from the nonzeros.
    """
    if mttkrp_last is not None and last_mode is not None:
        per_col = np.sum(factors[last_mode] * mttkrp_last, axis=0)
        return float(per_col @ weights)
    if tensor.nnz == 0:
        return 0.0
    acc = np.repeat(weights[None, :], tensor.nnz, axis=0)
    for m in range(tensor.order):
        acc = acc * factors[m][tensor.indices[:, m]]
    model_at_nonzeros = acc.sum(axis=1)
    return float(model_at_nonzeros @ tensor.values)


def cp_fit(tensor: CooTensor, weights: np.ndarray, factors: list[np.ndarray],
           mttkrp_last: np.ndarray | None = None,
           last_mode: int | None = None,
           norm_x: float | None = None,
           grams: list[np.ndarray] | None = None) -> float:
    """Relative fit ``1 - ||X - X̃|| / ||X||`` (1 is a perfect model).

    ``grams`` optionally forwards precomputed ``A_mᵀA_m`` matrices to
    :func:`cp_norm` (the ALS fast path).
    """
    norm_x = tensor_norm(tensor) if norm_x is None else norm_x
    if norm_x == 0.0:
        return 1.0
    norm_model = cp_norm(weights, factors, grams)
    inner = cp_innerprod(tensor, weights, factors, mttkrp_last, last_mode)
    residual_sq = max(norm_x ** 2 + norm_model ** 2 - 2.0 * inner, 0.0)
    return 1.0 - float(np.sqrt(residual_sq)) / norm_x
