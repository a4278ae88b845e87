"""Hardware configuration dataclasses (Table 2 of the paper).

All simulation-wide knobs live here so that experiments can express the
paper's setup declaratively and sweeps can vary a single field at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache size must be a multiple of line size times associativity"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Two-level cache hierarchy used by both cores (Table 2)."""

    l1i: CacheConfig = CacheConfig(16 * 1024, 64, 2, 1)
    l1d: CacheConfig = CacheConfig(16 * 1024, 64, 2, 1)
    l2: CacheConfig = CacheConfig(512 * 1024, 64, 8, 10)
    memory_latency_cycles: int = 200


@dataclass(frozen=True)
class ITConfig:
    """Inheritance Tracking hardware parameters (Section 4.3)."""

    enabled: bool = True


@dataclass(frozen=True)
class IFConfig:
    """Idempotent Filter hardware parameters (Section 5).

    ``associativity`` of ``0`` means fully associative.
    """

    enabled: bool = True
    num_entries: int = 32
    associativity: int = 0

    def __post_init__(self) -> None:
        if self.num_entries <= 0:
            raise ValueError("IF cache needs at least one entry")
        if self.associativity < 0:
            raise ValueError("associativity must be >= 0 (0 = fully associative)")
        ways = self.num_entries if self.associativity == 0 else self.associativity
        if ways > self.num_entries or self.num_entries % ways:
            raise ValueError("num_entries must be a multiple of associativity")

    @property
    def ways(self) -> int:
        """Effective number of ways (``num_entries`` when fully associative)."""
        return self.num_entries if self.associativity == 0 else self.associativity

    @property
    def num_sets(self) -> int:
        """Number of sets in the filter cache."""
        return self.num_entries // self.ways


@dataclass(frozen=True)
class MTLBConfig:
    """Metadata-TLB hardware parameters (Section 6.3)."""

    enabled: bool = True
    num_entries: int = 64
    #: instruction cost charged to the software miss handler (lma_fill path)
    miss_handler_instructions: int = 20

    def __post_init__(self) -> None:
        if self.num_entries <= 0:
            raise ValueError("M-TLB needs at least one entry")


@dataclass(frozen=True)
class LogBufferConfig:
    """LBA log buffer parameters (Section 3 / Table 2)."""

    size_bytes: int = 64 * 1024
    bytes_per_record: float = 1.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("log buffer size must be positive")
        if self.bytes_per_record <= 0:
            raise ValueError("record size must be positive")

    @property
    def capacity_records(self) -> int:
        """Number of compressed records the buffer can hold."""
        return int(self.size_bytes / self.bytes_per_record)


@dataclass(frozen=True)
class SystemConfig:
    """Full dual-core LBA system configuration.

    The defaults reproduce Table 2 plus the hardware parameters assumed in
    Section 7.1 (8-entry IT table, 32-entry fully-associative IF, 1-cycle
    LMA).
    """

    hierarchy: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    log_buffer: LogBufferConfig = field(default_factory=LogBufferConfig)
    it: ITConfig = field(default_factory=ITConfig)
    idempotent_filter: IFConfig = field(default_factory=IFConfig)
    mtlb: MTLBConfig = field(default_factory=MTLBConfig)

    def with_techniques(
        self,
        *,
        lma: Optional[bool] = None,
        it: Optional[bool] = None,
        idempotent_filter: Optional[bool] = None,
    ) -> "SystemConfig":
        """Return a copy with individual acceleration techniques toggled.

        ``None`` leaves a technique unchanged.  This mirrors the paper's
        Figure 11 methodology of enabling LMA, IT and IF one by one.
        """
        new = self
        if lma is not None:
            new = replace(new, mtlb=replace(new.mtlb, enabled=lma))
        if it is not None:
            new = replace(new, it=replace(new.it, enabled=it))
        if idempotent_filter is not None:
            new = replace(
                new,
                idempotent_filter=replace(new.idempotent_filter, enabled=idempotent_filter),
            )
        return new

    def gated_for(self, lifeguard) -> "SystemConfig":
        """Gate IT and IF on a lifeguard's declared applicability (Figure 2).

        ``lifeguard`` is any object exposing ``uses_it``/``uses_if`` (a
        :class:`repro.lifeguards.base.Lifeguard` instance or class); the
        live platform and the offline trace replay share this policy.
        """
        return self.with_techniques(
            it=self.it.enabled and lifeguard.uses_it,
            idempotent_filter=self.idempotent_filter.enabled and lifeguard.uses_if,
        )


#: Baseline LBA configuration: no acceleration technique enabled.
BASELINE_CONFIG = SystemConfig().with_techniques(lma=False, it=False, idempotent_filter=False)

#: Fully optimised configuration used for the "LBA Optimized" bars.
OPTIMIZED_CONFIG = SystemConfig()
