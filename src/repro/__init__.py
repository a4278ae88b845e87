"""repro: reproduction of "Flexible Hardware Acceleration for Instruction-Grain
Program Monitoring" (Chen et al., ISCA 2008).

The package is organised as a set of substrates (a functional IA32-flavoured
ISA, an application memory system, a cache hierarchy, and the LBA log
transport) plus the paper's contribution: the hardware acceleration framework
made of Inheritance Tracking (IT), Idempotent Filters (IF) and the
Metadata-TLB (M-TLB / ``lma`` instruction family), applied to five
instruction-grain lifeguards (ADDRCHECK, MEMCHECK, TAINTCHECK, TAINTCHECK
with detailed tracking and LOCKSET).

Typical entry points:

* :class:`repro.lba.platform.LBASystem` -- run a workload under a lifeguard
  with a chosen acceleration configuration and obtain slowdowns.
* :mod:`repro.trace` -- serialize the log into chunked trace files and
  replay them offline through one lifeguard that sees every chunk in order
  (in-process, or in one supervised worker process).
* :mod:`repro.experiments` -- regenerate every table and figure of the
  paper's evaluation section.
* :mod:`repro.analysis` -- the PIN-analogue profiling study (design-space
  sweeps for IT, IF and M-TLB).
"""

from repro._version import __version__

__all__ = ["__version__"]
