"""The out-of-core HB-CSF build, under its historical name.

Every CSF-family builder reads its input through the sorted-chunk protocol
(``sorted_view(mode_order).iter_chunks()``), which an in-memory
:class:`~repro.tensor.coo.CooTensor` answers with one chunk and a
:class:`~repro.tensor.shards.ShardedCooTensor` with one chunk per sorted
shard.  The streaming HB-CSF build is therefore
:func:`repro.core.hybrid.build_hbcsf` itself; this module keeps the old
import path.
"""

from __future__ import annotations

from repro.core.hybrid import build_hbcsf

__all__ = ["streaming_hbcsf"]

streaming_hbcsf = build_hbcsf
