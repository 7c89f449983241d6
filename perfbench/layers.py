"""Outside-in layer trace: self time per layer of the CP-ALS path.

The benchmark wraps the public functions of each layer module, from its own
files, and charges every call's *self time* (its duration minus the time
spent in wrapped calls it made) to that function's layer.  Time spent in
unwrapped helpers is charged to the nearest wrapped caller; time in no
wrapped call at all is the phase root's, reported as unattributed.

Wrapping rebinds every reference the ``repro`` package holds to the
original function (modules bind imported names at import time), and
replaces methods on their classes, so the program under test is unchanged
apart from one timer pair per call.  Open one wrapper per public call,
never per row: the kernels are called once per slab, so the cost stays
small next to the work, and :func:`wrapper_cost_s` measures it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (module, attribute or Class.method, layer metric) — the layers of the
#: CP-ALS path, outermost first.  ``cp_als`` itself is the dense layer: its
#: self time is the Gram / Hadamard / pinv-apply / normalise work plus the
#: workspace zeroing.
LAYERS = (
    ("repro.tensor.coo", "CooTensor.deduplicated", "tensor.dedup_s"),
    ("repro.tensor.coo", "CooTensor.sorted_by_modes", "tensor.sort_s"),
    ("repro.tensor.csf", "build_csf", "tensor.build_csf_s"),
    ("repro.tensor.csf", "CsfTensor.to_coo", "tensor.csf_to_coo_s"),
    ("repro.tensor.shards", "sort_sharded", "tensor.sort_sharded_s"),
    ("repro.formats.plan_cache", "tensor_fingerprint",
     "formats.fingerprint_s"),
    ("repro.formats.streaming", "streaming_hbcsf",
     "formats.streaming_hbcsf_s"),
    ("repro.core.hybrid", "build_hbcsf", "core.build_hbcsf_s"),
    ("repro.core.hybrid", "partition_slices", "core.partition_slices_s"),
    ("repro.core.bcsf", "build_bcsf", "core.build_bcsf_s"),
    ("repro.core.csl", "build_csl_group", "core.build_csl_s"),
    ("repro.core.bcsf", "BcsfTensor.mttkrp", "core.bcsf_mttkrp_s"),
    ("repro.core.csl", "CslGroup.mttkrp", "core.csl_mttkrp_s"),
    ("repro.kernels.csf_mttkrp", "segment_sum", "kernels.segment_sum_s"),
    ("repro.kernels.coo_mttkrp", "coo_mttkrp", "kernels.coo_s"),
    ("repro.cpd.als", "cp_als", "cpd.dense_s"),
    ("repro.cpd.fit", "cp_fit", "cpd.fit_s"),
    ("repro.cpd.init", "init_factors", "cpd.init_s"),
    ("repro.cpd.fit", "tensor_norm", "cpd.norm_s"),
)

#: layers whose self time is MTTKRP kernel work.
KERNEL_LAYERS = ("core.bcsf_mttkrp_s", "core.csl_mttkrp_s",
                 "kernels.segment_sum_s", "kernels.coo_s")


class Ledger:
    """Self-time accumulator fed by the wrappers :meth:`install` places."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls = 0
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- #
    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)  # time of wrapped calls made from here
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls += 1
        return timed

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` wherever it is bound."""
        for module_name, attr, layer in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self.wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -------------------------------------------------------------- #
    def begin(self) -> None:
        """Start one repetition: zero the tallies, open the phase root."""
        self.self_s.clear()
        self.calls = 0
        self._stack[:] = [0.0]

    def end(self, wall_s: float) -> tuple[dict[str, float], float, int]:
        """Close the repetition: (self time per layer, unattributed, calls)."""
        attributed = self._stack.pop()
        return dict(self.self_s), wall_s - attributed, self.calls


def wrapper_cost_s(samples: int = 200_000) -> float:
    """Added seconds per wrapped call (wrapped minus bare no-op call)."""
    def noop():
        return None

    ledger = Ledger()
    wrapped = ledger.wrap("noop", noop)
    ledger.begin()

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(samples):
                fn()
            best = min(best, (time.perf_counter() - start) / samples)
        return best

    return max(per_call(wrapped) - per_call(noop), 0.0)
