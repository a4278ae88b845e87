"""Workload abstraction and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Type, Union

from repro.isa.machine import Machine
from repro.isa.program import Program
from repro.isa.threads import ThreadedMachine

ApplicationMachine = Union[Machine, ThreadedMachine]

#: Registry of single-threaded (SPEC-analogue) workloads, keyed by name.
SPEC_WORKLOADS: Dict[str, Type["Workload"]] = {}
#: Registry of multithreaded (Table 3 analogue) workloads, keyed by name.
MULTITHREADED_WORKLOADS: Dict[str, Type["Workload"]] = {}


class Workload(ABC):
    """A runnable monitored program.

    Args:
        scale: multiplies loop trip counts / data sizes.  ``1.0`` corresponds
            to the "reduced input" sizes used by the simulation study
            (tens of thousands of dynamic instructions); experiments may
            scale up for the profiling study or down for fast unit tests.
    """

    #: workload name as it appears in figures (e.g. ``"bzip2"``)
    name: str = "workload"
    #: True for multi-thread workloads (LOCKSET study; two threads by default)
    multithreaded: bool = False
    #: one-line description of what the synthetic program models
    description: str = ""
    #: worker threads of a multithreaded workload (the paper's setup)
    num_threads: int = 2

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def iterations(self, base: int, minimum: int = 1) -> int:
        """Scale a loop trip count."""
        return max(minimum, int(base * self.scale))

    @abstractmethod
    def build_programs(self) -> List[Program]:
        """Build the program(s): one entry per application thread."""

    def build_machine(self) -> ApplicationMachine:
        """Instantiate a fresh machine ready to run this workload."""
        programs = self.build_programs()
        if self.multithreaded:
            return ThreadedMachine(programs)
        if len(programs) != 1:
            raise ValueError(f"single-threaded workload {self.name} built {len(programs)} programs")
        return Machine(programs[0])


def register_spec(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the SPEC registry."""
    SPEC_WORKLOADS[cls.name] = cls
    return cls


def register_multithreaded(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the multithreaded registry."""
    MULTITHREADED_WORKLOADS[cls.name] = cls
    return cls


def get_workload(name: str, scale: float = 1.0) -> Workload:
    """Instantiate a registered workload by name."""
    if name in SPEC_WORKLOADS:
        return SPEC_WORKLOADS[name](scale=scale)
    if name in MULTITHREADED_WORKLOADS:
        return MULTITHREADED_WORKLOADS[name](scale=scale)
    raise KeyError(f"unknown workload {name!r}")


def workload_names(multithreaded: bool = False) -> List[str]:
    """Names of the registered workloads of one kind, in registration order."""
    registry = MULTITHREADED_WORKLOADS if multithreaded else SPEC_WORKLOADS
    return list(registry)
