"""CSF MTTKRP (Algorithm 3 of the paper), generalized to any order.

The kernel walks the CSF tree bottom-up.  For a third-order tensor rooted at
the target mode it is exactly Equation (8) / Algorithm 3:

* every nonzero contributes ``val * C[k, :]``,
* contributions are reduced within each fiber (the ``tmp[]`` array),
* the fiber result is scaled by ``B[j, :]`` and reduced within the slice,
* the slice result is written to the output row of the slice index.

Factoring the reductions this way is what saves the ``R (J - 1)``
multiplications per fiber relative to COO (Section II-C).

The scratch is rank-major: leaf rows are gathered into an ``(R, nnz)``
buffer and every level reduces along the contiguous axis with
``reduceat(axis=1)``.  Each output element is summed in the same order as
in a row-major ``(nnz, R)`` layout, so the result is bit-identical to it,
but the contiguous reduction runs several times faster than
``reduceat(axis=0)``.  The gathers read C-ordered ``(R, I)`` copies of the
non-root factors, made once per call by :func:`rank_major`.  A factor with
more rows than the tree has nonzeros is not worth copying whole; its rows
are gathered row-major and used through a transposed view.
"""

from __future__ import annotations

import numpy as np

from repro.faults.deadline import check_deadline
from repro.faults.hooks import fault_point
from repro.tensor.csf import CsfTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["csf_mttkrp", "csf_mttkrp_rank_major", "rank_major",
           "segment_sum", "DEFAULT_SLAB_ELEMS", "slab_nnz_for"]

#: soft cap on the elements of the ``(R, nnz)`` scratch the tree reduction
#: materialises per slab (2^22 float64 elements = 32 MB).  Tensors whose
#: nonzero count fits one slab take the exact historical single-pass path;
#: larger tensors are evaluated in root-aligned slabs so peak scratch stays
#: bounded no matter how far the out-of-core ladder scales nnz.
DEFAULT_SLAB_ELEMS = 1 << 22


def slab_nnz_for(rank: int, slab_nnz: int | None = None) -> int:
    """Nonzeros per reduction slab: explicit override or the element budget."""
    if slab_nnz is not None:
        if slab_nnz < 1:
            raise TensorFormatError(
                f"slab_nnz must be >= 1, got {slab_nnz}")
        return slab_nnz
    return max(1, DEFAULT_SLAB_ELEMS // max(rank, 1))


#: factor rows per block of :func:`rank_major`'s copy.  A whole-array
#: ``np.ascontiguousarray(F.T)`` strides through memory and costs ~6x the
#: blocked copy on a 300000x32 factor; 2048-row blocks stay cache-resident.
_TRANSPOSE_BLOCK = 2048


def rank_major(factors: list[np.ndarray], skip: int,
               nnz: int) -> list[np.ndarray | None]:
    """C-ordered ``(R, I)`` copies of the factors a ``nnz``-nonzero CSF
    tree rooted at mode ``skip`` gathers from.

    The root factor is never read, so its slot is ``None``.  So is the slot
    of a factor with more rows than the tree has nonzeros: copying it whole
    would cost more than the gathers it serves, so the kernel gathers its
    rows from the row-major factor instead.
    """
    out: list[np.ndarray | None] = []
    for m, f in enumerate(factors):
        rows, rank = f.shape
        if m == skip or rows > nnz:
            out.append(None)
            continue
        ft = np.empty((rank, rows), dtype=f.dtype)
        for lo in range(0, rows, _TRANSPOSE_BLOCK):
            ft[:, lo:lo + _TRANSPOSE_BLOCK] = f[lo:lo + _TRANSPOSE_BLOCK].T
        out.append(ft)
    return out


def _gather(factors: list[np.ndarray], factors_t: list, mode: int,
            idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of factor ``mode`` as a fresh ``(R, len(idx))`` array.

    C-ordered when gathered from a :func:`rank_major` copy; otherwise the
    transposed view of a row-major gather, which every operation of the
    tree reduction accepts with the same bits, only more slowly.
    """
    ft = factors_t[mode]
    if ft is not None:
        return np.take(ft, idx, axis=1)
    return factors[mode][idx].T


def segment_sum(data: np.ndarray, ptr: np.ndarray, axis: int = 0,
                validate: bool = True) -> np.ndarray:
    """Sum ``data`` along ``axis`` over segments ``[ptr[n], ptr[n+1])``.

    CSF guarantees no empty internal nodes, so every segment is non-empty,
    which lets us use ``np.add.reduceat`` directly.  ``axis=0`` reduces the
    rows of an ``(nnz, R)`` array (CSL); ``axis=1`` reduces the columns of
    a rank-major ``(R, nnz)`` array (CSF tree levels), with bit-identical
    sums.

    ``validate=False`` skips the ``np.diff`` monotonicity scan (an extra
    O(len(ptr)) pass) for internal call sites — the CSF/B-CSF kernels and
    validated :class:`~repro.core.csl.CslGroup` structures — whose builders
    already guarantee non-empty monotone segments.
    """
    if validate and ptr.shape[0] == 0:
        raise TensorFormatError("pointer array must have at least one entry")
    if ptr.shape[0] == 1:
        shape = list(data.shape)
        shape[axis] = 0
        return np.zeros(shape, dtype=data.dtype)
    if validate:
        if data.shape[axis] != int(ptr[-1]):
            raise TensorFormatError(
                f"pointer array covers {int(ptr[-1])} entries but data has "
                f"{data.shape[axis]} along axis {axis}"
            )
        if np.any(np.diff(ptr) <= 0):
            raise TensorFormatError("segment_sum requires non-empty, monotone segments")
    return np.add.reduceat(data, ptr[:-1], axis=axis)


def csf_mttkrp(
    csf: CsfTensor,
    factors: list[np.ndarray],
    mode: int | None = None,
    out: np.ndarray | None = None,
    dtype=None,
    validate: bool = True,
    slab_nnz: int | None = None,
) -> np.ndarray:
    """MTTKRP for the root mode of a CSF tensor.

    Parameters
    ----------
    csf:
        CSF representation.  Its root mode must be the target mode (the
        paper follows SPLATT's ALLMODE configuration: one CSF per mode).
    factors:
        One factor matrix per mode (original mode order).
    mode:
        Target mode; defaults to ``csf.root_mode`` and must equal it.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output, accumulated into.
        Its dtype determines the compute dtype.
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the factor-shape checks and the segment-monotonicity scans
        when ``False`` — for trusted internal re-invocations on
        builder-produced trees.
    slab_nnz:
        Nonzeros per reduction slab (``None`` derives it from
        :data:`DEFAULT_SLAB_ELEMS` and the rank).  Slabs split only at
        root-entry boundaries, so every output row is produced by exactly
        one slab and the result is bit-identical to the single-pass
        evaluation regardless of the slab size; a single root entry larger
        than the slab is evaluated whole.
    """
    if mode is None:
        mode = csf.root_mode
    if mode != csf.root_mode:
        raise DimensionError(
            f"CSF is rooted at mode {csf.root_mode}; cannot compute mode-{mode} "
            "MTTKRP without re-rooting (build a CSF per mode, as SPLATT ALLMODE does)"
        )
    if validate:
        rank = _check_factors(csf.shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = csf.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype))
    elif out.shape != (rows, rank):
        raise DimensionError(f"out has shape {out.shape}, expected {(rows, rank)}")
    if csf.nnz == 0:
        return out
    factors = [np.asarray(f, dtype=out.dtype) for f in factors]
    factors_t = rank_major(factors, mode, csf.nnz)
    return csf_mttkrp_rank_major(csf, factors, factors_t, out, validate,
                                 slab_nnz)


def csf_mttkrp_rank_major(csf: CsfTensor, factors: list[np.ndarray],
                          factors_t: list[np.ndarray | None],
                          out: np.ndarray, validate: bool = True,
                          slab_nnz: int | None = None) -> np.ndarray:
    """:func:`csf_mttkrp` with the factor conversion already done.

    ``factors`` must already be cast to ``out.dtype``, ``factors_t`` must
    come from :func:`rank_major` for them and ``csf.root_mode``, and
    ``out`` is the ``(shape[root], R)`` accumulator.  Lets a caller that
    runs several CSF trees against the same factors (the threaded
    backend's shards) convert them once.
    """
    if csf.nnz == 0:
        return out
    values = csf.values.astype(out.dtype, copy=False)

    slab = slab_nnz_for(out.shape[1], slab_nnz)
    if csf.nnz <= slab:
        # single-slab tensor: one cooperative boundary before the pass
        fault_point("kernel.slab")
        check_deadline("kernel.slab")
        _tree_reduce(values, csf.fids, csf.fptr, csf.mode_order, factors,
                     factors_t, out, validate)
        return out

    # Leaf offset of every root-entry boundary: chain the pointer levels.
    off = csf.fptr[0]
    for ptr in csf.fptr[1:]:
        off = ptr[off]
    nroot = csf.fids[0].shape[0]
    start = 0
    while start < nroot:
        # Slab boundaries are the kernel's cooperative watchdog points:
        # an ambient deadline (bench cell timeout, service budget) is
        # polled here, so a slabbed kernel can be interrupted between
        # slabs instead of hanging a whole pass.
        fault_point("kernel.slab")
        check_deadline("kernel.slab")
        stop = int(np.searchsorted(off, off[start] + slab, side="right")) - 1
        stop = min(max(stop, start + 1), nroot)
        # Restrict every level to the [start, stop) root entries: pointer
        # views are rebased to the slab, index/value views are plain slices.
        lo, hi = start, stop
        fids, fptr = [], []
        for ptr in csf.fptr:
            fids.append(csf.fids[len(fptr)][lo:hi])
            seg = ptr[lo:hi + 1]
            fptr.append(seg - seg[0])
            lo, hi = int(ptr[lo]), int(ptr[hi])
        fids.append(csf.fids[-1][lo:hi])
        _tree_reduce(values[lo:hi], fids, fptr, csf.mode_order, factors,
                     factors_t, out, validate)
        start = stop
    return out


def _tree_reduce(values: np.ndarray, fids: list, fptr: list,
                 mode_order: tuple, factors: list[np.ndarray],
                 factors_t: list, out: np.ndarray, validate: bool) -> None:
    """Bottom-up CSF tree reduction over one (slab of a) tensor,
    accumulated into ``out``.  ``factors_t`` is ``rank_major(factors,
    ...)``, ``fptr`` entries must be rebased to start at 0 and
    ``values``/``fids`` sliced consistently."""
    order = len(mode_order)
    # Leaf level: val * A_leafmode[leaf index, :], stored as (R, nnz).  The
    # gather is a fresh copy, so scaling it in place keeps one scratch
    # array live instead of two (multiplication is commutative
    # bit-for-bit).
    buf = _gather(factors, factors_t, mode_order[-1], fids[-1])
    buf *= values[None, :]

    # Reduce up the tree, scaling by the factor of each internal level except
    # the root.
    for level in range(order - 2, 0, -1):
        buf = segment_sum(buf, fptr[level], axis=1, validate=validate)
        buf *= _gather(factors, factors_t, mode_order[level], fids[level])

    # Root level: reduce fibers (or sub-trees) into slices and scatter.
    # The CSF contract does not make root ids unique (a slice split into
    # several root entries repeats its id), so the scatter must accumulate
    # (``add.at``), not assign.
    slice_vals = segment_sum(buf, fptr[0], axis=1, validate=validate)
    np.add.at(out, fids[0], slice_vals.T)
