"""COO MTTKRP (Algorithm 2 of the paper), vectorized.

For every nonzero ``X[i0, ..., i_{N-1}]`` the kernel forms the elementwise
(Hadamard) product of the corresponding rows of all factor matrices except
the target mode's, scales it by the value and accumulates it into the output
row of the target mode.

Three accumulation strategies are available:

* ``"add_at"`` — ``np.add.at`` scatter-accumulate, the vectorized
  equivalent of the atomic adds the GPU COO kernels (ParTI) issue.  Its
  random-access write pattern is cache-hostile on large tensors.
* ``"sort"`` — sorted segment-sum: stable-argsort the target-mode indices,
  reduce each run of equal indices with one ``np.add.reduceat`` over all
  ``R`` columns at once, and scatter the per-row totals.  One radix sort
  plus sequential reductions; the fastest path once nnz is large.
* ``"bincount"`` — one sort-free ``np.bincount(weights=...)`` pass per
  factor column.  Kept as an alternative dense-output path (it can win when
  ``R`` is very small); measured slower than ``"sort"`` at the paper's
  ``R = 32`` on NumPy 2.x.  Serial-only: each pass read-modify-writes the
  full output column, so the threaded backend (whose shards share the
  output array) rejects it.

``"auto"`` (the default) picks ``"sort"`` for large-nnz tensors and keeps
the scatter path for tiny ones, where sort overhead dominates.  All paths
produce the same sums up to float addition order (they agree to allclose
tolerance; per-row partial sums are reassociated).

The Hadamard accumulator is formed by scaling the *first* gathered factor
by the values directly — no ``(nnz, R)`` all-ones matrix is materialised —
and is computed in the requested compute dtype (``float32`` halves the
memory traffic of this bandwidth-bound kernel; see
:mod:`repro.util.dtypes`).  It stays row-major ``(nnz, R)``, unlike the
CSF tree's rank-major scratch (:mod:`repro.kernels.csf_mttkrp`): COO has
no tree levels, only the ``"sort"`` accumulator's single reduction, and
converting the non-target factors to ``(R, I)`` on every call costs
0.06-0.08 s per mode on the ``als-hypersparse`` benchmark tensor
(2e5-4e5-row factors, R=32, 2 x86 cores).  That is a quarter to a half of
the 0.15-0.26 s its 7e4-1.2e5-nnz HB-CSF COO group takes.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, ValidationError

__all__ = ["coo_mttkrp", "COO_ACCUMULATE_METHODS", "SORT_MIN_NNZ"]

#: accumulation strategies accepted by :func:`coo_mttkrp`.
COO_ACCUMULATE_METHODS = ("auto", "add_at", "sort", "bincount")

#: nnz threshold above which ``"auto"`` switches from the ``"add_at"``
#: scatter path to the ``"sort"`` segment-sum path.  Below it the stable
#: argsort costs more than it saves; above it the sequential
#: ``np.add.reduceat`` writes beat ``np.add.at``'s random-access scatter by
#: ~1.3-1.4x at the paper's ``R = 32`` (measured on NumPy 2.x; see
#: ``BENCH_kernels.json``, targets ``kernel.coo-scatter`` vs
#: ``kernel.coo-sorted``).  The empirical autotuner (:mod:`repro.tune`)
#: refines this static default per tensor.
SORT_MIN_NNZ = 2048


def _accumulate_add_at(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    np.add.at(out, idx, acc)


def _accumulate_sort(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    sorted_acc = acc[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
    out[sorted_idx[starts]] += np.add.reduceat(sorted_acc, starts, axis=0)


def _accumulate_bincount(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    rows = out.shape[0]
    for r in range(acc.shape[1]):
        out[:, r] += np.bincount(idx, weights=acc[:, r], minlength=rows)


_ACCUMULATORS = {
    "add_at": _accumulate_add_at,
    "sort": _accumulate_sort,
    "bincount": _accumulate_bincount,
}


def coo_mttkrp(
    tensor: CooTensor,
    factors: list[np.ndarray],
    mode: int,
    out: np.ndarray | None = None,
    method: str = "auto",
    dtype=None,
    validate: bool = True,
) -> np.ndarray:
    """Mode-``mode`` MTTKRP of a COO tensor.

    Parameters
    ----------
    tensor:
        Input sparse tensor.
    factors:
        One factor matrix per mode; ``factors[mode]`` is ignored (only its
        shape is checked) exactly as in the paper's Algorithm 2.
    mode:
        Target mode.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output; accumulated into
        (not cleared), mirroring the GPU kernels' atomic accumulation.  Its
        dtype determines the compute dtype.
    method:
        ``"auto"`` (default), ``"add_at"``, ``"sort"`` or ``"bincount"`` —
        see the module docstring.
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the method and factor-shape checks when ``False`` — for
        trusted internal re-invocations (ALS inner loops, HB-CSF group
        dispatch) where the shapes were validated once up front.
    """
    # The method check is O(1) — unlike the shape scans it is never worth
    # skipping, and a typo'd method must not surface as a KeyError after
    # the full accumulation.
    if method not in COO_ACCUMULATE_METHODS:
        raise ValidationError(
            f"unknown COO accumulation method {method!r}; choose one of "
            f"{', '.join(COO_ACCUMULATE_METHODS)}"
        )
    if validate:
        rank = _check_factors(tensor.shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = tensor.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype))
    elif out.shape != (rows, rank):
        raise DimensionError(
            f"out has shape {out.shape}, expected {(rows, rank)}"
        )

    if tensor.nnz == 0:
        return out

    compute_dtype = out.dtype
    values = tensor.values.astype(compute_dtype, copy=False)
    acc = None
    for m in range(tensor.order):
        if m == mode:
            continue
        gathered = np.asarray(factors[m], dtype=compute_dtype)[tensor.indices[:, m]]
        if acc is None:
            # Scaling the first gathered factor by the values replaces the
            # old ``values[:, None] * ones((1, R))`` materialisation; the
            # multiplication order per element is unchanged, so the result
            # is bit-identical.
            acc = values[:, None] * gathered
        else:
            acc *= gathered
    if acc is None:  # order-1 tensor: no non-target factors to gather
        acc = np.repeat(values[:, None], rank, axis=1)

    if method == "auto":
        method = "sort" if tensor.nnz >= SORT_MIN_NNZ else "add_at"
    _ACCUMULATORS[method](out, tensor.indices[:, mode], acc)
    return out
