"""Oracle for ooc-stream, run in a child process.

Usage: python3 perfbench/oracle_ooc.py SHARD_DIR BUNDLE.npz

Builds HB-CSF in memory from the same shard files and checks that its
MTTKRP on the bundle's factors is bit-identical to the streamed outputs in
the bundle.  Exits 0 when every mode matches, 1 when one does not.
"""

from __future__ import annotations

import sys

from checkout import use_checkout_sources


def main(argv: list[str]) -> int:
    shard_dir, bundle = argv
    use_checkout_sources()
    import numpy as np

    from repro.core.mttkrp import MttkrpPlan
    from repro.tensor.shards import open_sharded

    coo = open_sharded(shard_dir).to_coo()
    with np.load(bundle) as data:
        factors = [data[f"factor{m}"] for m in range(coo.order)]
        streamed = [data[f"out{m}"] for m in range(coo.order)]
    plan = MttkrpPlan(coo, format="hb-csf", backend="serial")
    bad = [m for m in plan.modes
           if not np.array_equal(plan.mttkrp(factors, m), streamed[m])]
    if bad:
        print(f"modes {bad} differ from the in-memory build")
        return 1
    print(f"all {coo.order} modes bit-identical ({coo.nnz} nnz)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
