"""COO MTTKRP (Algorithm 2 of the paper), vectorized.

For every nonzero ``X[i0, ..., i_{N-1}]`` the kernel forms the elementwise
(Hadamard) product of the corresponding rows of all factor matrices except
the target mode's, scales it by the value and accumulates it into the output
row of the target mode.

The accumulation is ``np.add.at``, the vectorized form of the atomic add
Algorithm 2 issues per output element: every ``acc[i, r]`` is added into
``out[idx[i], r]`` one scalar at a time, in input order.  A shard holding
a contiguous run of the input therefore reproduces the serial sums bit for
bit.  HB-CSF (Algorithm 5) routes only single-nonzero slices to its COO
group, so there every output row is distinct and there is nothing to
reduce.

``np.add.at`` runs on the flattened output with flat element indices, in
slabs of :data:`SLAB_NNZ` nonzeros: NumPy's indexed 1-D loop is 2-4x faster
than ``np.add.at(out, idx, acc)`` over ``(nnz, R)`` rows, the result is
bit-identical (the same scalar adds in the same order), and a slab's
index scratch stays cache-sized.  A stable-argsort plus ``np.add.reduceat``
segment sum does not pay for its sort here: at R=32 (NumPy 2.4, 2 x86
cores) its accumulate step took 0.19 ms against 0.19 ms for the slabbed
``np.add.at`` at 2390 nonzeros and 31 per row, 394 ms against 60 ms at
2e5 distinct rows, 75 ms against 22-27 ms at 2e5 nonzeros and 30 per row,
and 1.09 s against 0.13 s at 1e6 nonzeros and 3 per row.

The Hadamard accumulator is formed by scaling the *first* gathered factor
by the values directly — no ``(nnz, R)`` all-ones matrix is materialised —
and is computed in the requested compute dtype (``float32`` halves the
memory traffic of this bandwidth-bound kernel; see
:mod:`repro.util.dtypes`).  It stays row-major ``(nnz, R)``, unlike the
CSF tree's rank-major scratch (:mod:`repro.kernels.csf_mttkrp`): COO has
no tree levels to reduce, and converting the non-target factors to
``(R, I)`` on every call would cost more than the whole kernel: on the
``als-hypersparse`` benchmark tensor (2e5-4e5-row factors, R=32, 2 x86
cores) the conversion took 0.15-0.28 s per mode against 0.05-0.12 s for
the kernel on its 7e4-1.2e5-nnz HB-CSF COO groups.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError

__all__ = ["coo_mttkrp"]

#: nonzeros per ``np.add.at`` call: the flat index scratch of one slab is
#: ``SLAB_NNZ x R`` int64 (1 MB at R=32).  1024-16384 measured within noise
#: of each other at 2e3-1e6 nnz; 2^16 and up ran 1.1-1.7x slower.
SLAB_NNZ = 1 << 12


def _atomic_add(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    """``out[idx[i], r] += acc[i, r]`` for every ``i`` in order — exactly
    ``np.add.at(out, idx, acc)``, through the fast 1-D indexed loop."""
    if not out.flags.c_contiguous:  # no flat view to scatter into
        np.add.at(out, idx, acc)
        return
    rank = out.shape[1]
    flat = out.reshape(-1)
    cols = np.arange(rank)
    for a in range(0, idx.shape[0], SLAB_NNZ):
        b = a + SLAB_NNZ
        np.add.at(flat, (idx[a:b, None] * rank + cols).ravel(),
                  acc[a:b].ravel())


def coo_mttkrp(
    tensor: CooTensor,
    factors: list[np.ndarray],
    mode: int,
    out: np.ndarray | None = None,
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
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the factor-shape checks when ``False`` — for trusted
        internal re-invocations (ALS inner loops, HB-CSF group dispatch)
        where the shapes were validated once up front.
    """
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

    _atomic_add(out, tensor.indices[:, mode], acc)
    return out
