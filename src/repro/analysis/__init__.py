"""Profiling-study sweeps (the PIN-based analysis of Section 7.3).

The paper complements its timing simulations with a profiling study: the
benchmark binaries are instrumented with PIN, the resulting event streams
are replayed through the three mechanisms, and the design space (filter
sizes, associativities, M-TLB geometries) is explored by replaying the same
streams with different parameters.  :class:`repro.analysis.profiler.Profiler`
extracts the dynamic record stream of a workload once; the sweeps replay it:

* IT (Figure 13(a)): through :class:`repro.core.accelerator.EventAccelerator`
  on TaintCheck's ETCT with IT off and on.  The reduction's base is the
  update events delivered with IT off, as in Figure 12.
* IF (Figure 13(b)/(c)): through the accelerator on AddrCheck's ETCT for
  panel (b) and LockSet's for (c).  The base is every check event the
  lifeguard registers, all of which are delivered with the filter off.
* M-TLB (Figure 14): through a stand-alone
  :class:`repro.core.mtlb.MetadataTLB` that translates every memory
  reference, as the paper's PIN study does.
"""

from repro.analysis.profiler import Profiler
from repro.analysis.mtlb_model import (
    MTLBMissResult,
    choose_flexible_level1_bits,
    mtlb_miss_rate,
)
from repro.analysis.sweeps import (
    sweep_if_design_space,
    sweep_it_reduction,
    sweep_mtlb_design_space,
    sweep_mtlb_flexible_vs_fixed,
)

__all__ = [
    "Profiler",
    "MTLBMissResult",
    "choose_flexible_level1_bits",
    "mtlb_miss_rate",
    "sweep_if_design_space",
    "sweep_it_reduction",
    "sweep_mtlb_design_space",
    "sweep_mtlb_flexible_vs_fixed",
]
