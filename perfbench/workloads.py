"""The three benchmark workloads: inputs, timed repetitions and oracles.

Every workload answers the same questions — how long a cold HB-CSF plan
build over all modes takes (set-up), how long one sweep over all modes
takes after it (solve), and whether the outputs are right — on inputs made
only from the seed.  Each repetition starts at the same cache temperature:

* set-up: the plan cache is emptied, the tensor is a fresh object (so its
  content fingerprint is hashed again) and, out of core, the shards are a
  freshly written manifest in a new directory (so no sorted view exists);
  the cache must then record 3 misses and 0 hits;
* solve: every mode's representation comes from the warm plan cache, which
  must record 3 hits and 0 misses.

A repetition that breaks its cache contract, or raises, is a failed
operation.  The oracles run after the timed phases and after peak RSS is
read, so they move neither.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.mttkrp import MttkrpPlan
from repro.cpd import als
from repro.formats.plan_cache import clear_plan_cache
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.scenarios.cache import generate_sharded
from repro.scenarios.registry import materialize_spec
from repro.scenarios.spec import parse_spec
from repro.scenarios.suites import get_suite
from repro.tensor.coo import CooTensor

#: the paper's decomposition rank.
RANK = 32
FORMAT = "hb-csf"
BACKEND = "serial"
#: fixed ALS iteration count (tol=0 never stops early); sweep_s is a
#: cp_als call's wall time divided by it.
ALS_ITERS = 2
#: the ooc-stream tensor is written as 4 shards of 250k nonzeros.
OOC_SHARD_NNZ = 250_000
#: HB-CSF vs the COO kernel: different summation order, so allclose with
#: rtol 1e-9 and an absolute floor of 1e-12 x the largest |entry|.
ORACLE_RTOL = 1e-9
ORACLE_ATOL_SCALE = 1e-12
#: the out-of-core oracle child must finish well inside a run's limit.
ORACLE_TIMEOUT_S = 120


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(np.ascontiguousarray(a)))
    return h.hexdigest()


class AlsWorkload:
    """Fixed-iteration CP-ALS on an in-memory COO tensor.

    ``prepare_*`` run untimed before each repetition, ``setup``/``solve``
    are the timed bodies and ``after_solve`` records the repetition's
    output, untimed.
    """

    sweeps_per_solve = ALS_ITERS

    def __init__(self, spec: dict, seed: int) -> None:
        self.seed = seed
        self.tensor = materialize_spec(parse_spec(spec).with_seed(seed))
        self.order = self.tensor.order
        self.plan: MttkrpPlan | None = None
        self.result = None
        self.fits: list[list[float]] = []
        self._next: CooTensor | None = None

    def _fresh(self) -> CooTensor:
        # Same arrays, new object: the fingerprint memo is per object, so
        # every repetition hashes the content like a newly loaded tensor.
        t = self.tensor
        return CooTensor(t.indices, t.values, t.shape, validate=False)

    def prepare_setup(self) -> None:
        self.plan = None
        clear_plan_cache()
        self._next = self._fresh()

    def setup(self) -> None:
        self.plan = MttkrpPlan(self._next, format=FORMAT, backend=BACKEND)

    def prepare_solve(self) -> None:
        self.result = None
        self._next = self._fresh()

    def solve(self) -> None:
        # Called through its module so the layer trace can wrap it.
        self.result = als.cp_als(self._next, RANK, n_iters=ALS_ITERS, tol=0.0,
                             format=FORMAT,
                             rng=np.random.default_rng(self.seed),
                             backend=BACKEND)

    def after_solve(self) -> None:
        self.fits.append(list(self.result.fits))

    def oracles(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) per check."""
        checks = []
        first = self.fits[0]
        for i, fits in enumerate(self.fits[1:], start=1):
            checks.append((f"fits[{i}] == fits[0]", fits == first,
                           f"{fits} vs {first}"))
        checks.append(("fits finite, one per iteration",
                       len(first) == ALS_ITERS
                       and bool(np.all(np.isfinite(first))), f"{first}"))
        factors = self.result.factors
        for m in self.plan.modes:
            got = self.plan.mttkrp(factors, m)
            ref = coo_mttkrp(self.tensor, factors, m)
            atol = ORACLE_ATOL_SCALE * float(np.max(np.abs(ref)))
            ok = bool(np.allclose(got, ref, rtol=ORACLE_RTOL, atol=atol))
            err = float(np.max(np.abs(got - ref)))
            checks.append((f"mode {m} hb-csf vs coo", ok,
                           f"max abs diff {err:.3e}"))
        return checks


class OocWorkload:
    """Out-of-core plan over a sharded tensor, then one MTTKRP per mode.

    Stops at the MTTKRP sweep because ``cp_als`` cannot take a
    ``ShardedCooTensor`` yet: it builds every plan and then fails with an
    ``AttributeError`` in ``tensor_norm`` (``cpd/fit.py``), which reads
    ``.values``.  Once that is fixed this workload can run ``cp_als`` like
    the others, and its baseline must be measured again.
    """

    sweeps_per_solve = 1

    def __init__(self, tier: str, seed: int, work_dir: Path) -> None:
        specs = dict(get_suite("scale_ladder_xl").specs())
        self.spec = specs[tier].with_seed(seed)
        self.order = len(self.spec.shape)
        self.work_dir = work_dir
        self.shard_dir: Path | None = None
        self.sharded = None
        self.plan: MttkrpPlan | None = None
        rng = np.random.default_rng(seed)
        self.factors = [rng.random((n, RANK)) for n in self.spec.shape]
        self.outputs: list[np.ndarray] | None = None
        self.digests: list[str] = []
        self._next = None

    def prepare_setup(self) -> None:
        # A new directory each time: sorted views persist under the shard
        # root, and reusing them would make later set-ups warm.
        self.plan = self.sharded = None
        if self.shard_dir is not None:
            shutil.rmtree(self.shard_dir)
        clear_plan_cache()
        self.shard_dir = Path(tempfile.mkdtemp(prefix="shards-",
                                               dir=self.work_dir))
        self._next = generate_sharded(self.spec, self.shard_dir,
                                      shard_nnz=OOC_SHARD_NNZ)

    def setup(self) -> None:
        self.sharded = self._next
        self.plan = MttkrpPlan(self.sharded, format=FORMAT, backend=BACKEND)

    def prepare_solve(self) -> None:
        self.outputs = None

    def solve(self) -> None:
        plan = MttkrpPlan(self.sharded, format=FORMAT, backend=BACKEND)
        self.outputs = [plan.mttkrp(self.factors, m) for m in plan.modes]

    def after_solve(self) -> None:
        self.digests.append(_digest(self.outputs))

    def oracles(self) -> list[tuple[str, bool, str]]:
        checks = []
        for i, d in enumerate(self.digests[1:], start=1):
            checks.append((f"outputs[{i}] == outputs[0]",
                           d == self.digests[0], d[:12]))
        # The in-memory build runs in a child so it cannot raise this
        # process's peak RSS.
        bundle = self.work_dir / "oracle.npz"
        np.savez(bundle, **{f"factor{m}": f
                            for m, f in enumerate(self.factors)},
                 **{f"out{m}": o for m, o in enumerate(self.outputs)})
        child = Path(__file__).with_name("oracle_ooc.py")
        try:
            proc = subprocess.run(
                [sys.executable, str(child), str(self.shard_dir),
                 str(bundle)],
                capture_output=True, text=True, timeout=ORACLE_TIMEOUT_S)
            lines = (proc.stdout + proc.stderr).strip().splitlines()
            ok = proc.returncode == 0
            detail = lines[-1] if lines else f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            ok, detail = False, f"timed out after {ORACLE_TIMEOUT_S} s"
        checks.append(("streamed == in-memory hb-csf (bit-identical)", ok,
                       detail))
        return checks


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "als-powerlaw":
        return AlsWorkload({"generator": "power_law",
                            "shape": [20_000, 15_000, 25_000],
                            "nnz": 1_000_000}, seed)
    if name == "als-hypersparse":
        return AlsWorkload({"generator": "uniform",
                            "shape": [400_000, 300_000, 200_000],
                            "nnz": 200_000}, seed)
    if name == "ooc-stream":
        return OocWorkload("xl-1m", seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")



# ------------------------------------------------------------------ #
# computed work of one sweep (a model, not a measurement)
# ------------------------------------------------------------------ #
def sweep_flops(reps) -> float:
    from repro.analysis.opcount import hbcsf_operations

    return float(sum(hbcsf_operations(rep, RANK) for rep in reps))


def sweep_bytes(reps) -> float:
    """Compulsory bytes of one HB-CSF sweep in float64.

    Index words (4 B, the ``analysis.storage`` accounting) and values
    (8 B per nonzero) read once; one R-wide factor row (8R B) gathered per
    non-root tree node or COO/CSL coordinate; one R-wide output row
    updated per root entry (per nonzero in the COO group).
    """
    row = 8 * RANK
    total = 0
    for rep in reps:
        order = rep.order
        total += 4 * rep.index_storage_words() + 8 * rep.nnz
        coo, csl, bcsf = rep.coo_group, rep.csl_group, rep.bcsf_group
        total += row * (order - 1) * (coo.nnz + csl.nnz)
        total += row * (coo.nnz + csl.num_slices)
        if bcsf is not None and bcsf.nnz:
            fids = bcsf.csf.fids
            total += row * sum(f.shape[0] for f in fids[1:])
            total += row * fids[0].shape[0]
    return float(total)
