"""TAINTCHECK with detailed tracking (Section 7.1).

The enhanced TAINTCHECK keeps an 8-byte metadata structure per 4-byte
application word: the 4-byte "from" address the taint was copied from and
the 4-byte instruction pointer of the copying instruction.  On a violation
the taint propagation trail can be reconstructed by chasing the "from"
pointers.  This metadata format is exactly what lifeguard-specific hardware
DIFT proposals cannot support, which is why the paper uses it to make the
flexibility argument.

Acceleration applicability: IT and LMA (as for the plain TAINTCHECK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.events import DeliveredEvent, EventType
from repro.lifeguards.reports import ErrorKind
from repro.lifeguards.taintcheck import TaintCheck, _CLEAN, _TAINTED
from repro.memory.shadow import TwoLevelShadowMap

#: Application bytes covered by one detailed-tracking metadata element.
_WORD = 4


@dataclass(frozen=True)
class TaintOrigin:
    """Provenance of one tainted word: where it was copied from and by whom."""

    from_address: int
    pc: int


class TaintCheckDetailed(TaintCheck):
    """TAINTCHECK variant recording a propagation history per tainted word."""

    name = "TaintCheckDetailed"
    uses_it = True
    uses_if = False
    description = (
        "TaintCheck with detailed tracking: 8 bytes of provenance metadata "
        "(from-address and instruction pointer) per 4-byte application word."
    )

    def _configure(self) -> None:
        super()._configure()
        #: 8-byte provenance element per 4-byte application word
        self.detail = TwoLevelShadowMap(level1_bits=16, level2_bits=14, element_size=8)
        #: per-register provenance, mirroring the per-register taint state
        self.register_origin: Dict[int, Optional[TaintOrigin]] = {}
        # Detailed tracking makes the frequent handlers longer: they store a
        # "from" address and the eip in addition to the taint bit.
        for event_type in (
            EventType.REG_TO_MEM,
            EventType.MEM_TO_REG,
            EventType.MEM_TO_MEM,
            EventType.IMM_TO_MEM,
            EventType.DEST_MEM_OP_REG,
        ):
            entry = self.etct.lookup(event_type)
            if entry is not None:
                entry.handler_instructions += 3

    # The 2-bit taint map remains the primary (most frequently consulted)
    # structure, exactly as in the plain TaintCheck; the wide provenance
    # records in ``self.detail`` are written alongside it by the overridden
    # handlers below, and their extra cost is reflected in the raised
    # ``handler_instructions`` above.

    def columnar_handlers(self):
        """No span fast paths: the overridden handlers below extend the
        plain TaintCheck ones with provenance recording, so inheriting the
        parent's fast paths would silently skip that work.  The columnar
        engine falls back to generic event delivery instead."""
        return {}

    # ------------------------------------------------------------------ provenance helpers

    def _word_base(self, address: int) -> int:
        return address - (address % _WORD)

    def origin_of(self, address: int) -> Optional[TaintOrigin]:
        """Provenance of the tainted word containing ``address`` (or ``None``)."""
        element = self.detail.read_element(self._word_base(address))
        if not element:
            return None
        return TaintOrigin(from_address=element & 0xFFFF_FFFF, pc=(element >> 32) & 0xFFFF_FFFF)

    def _record_origin(self, address: int, size: int, origin: Optional[TaintOrigin]) -> None:
        encoded = 0
        if origin is not None:
            encoded = (origin.from_address & 0xFFFF_FFFF) | ((origin.pc & 0xFFFF_FFFF) << 32)
        word = self._word_base(address)
        end = address + max(size, 1)
        write_element = self.detail.write_element
        while word < end:
            write_element(word, encoded)
            word += _WORD

    def taint_trail(self, address: int, limit: int = 16) -> List[TaintOrigin]:
        """Reconstruct the propagation trail ending at ``address``.

        Follows the "from" addresses recorded by detailed tracking until an
        untainted source or ``limit`` hops.
        """
        trail: List[TaintOrigin] = []
        seen = set()
        current = address
        for _ in range(limit):
            origin = self.origin_of(current)
            if origin is None or current in seen:
                break
            trail.append(origin)
            seen.add(current)
            current = origin.from_address
        return trail

    # ------------------------------------------------------------------ overridden handlers

    def _on_mem_to_reg(self, event: DeliveredEvent) -> None:
        super()._on_mem_to_reg(event)
        if event.dest_reg is None or event.src_addr is None:
            return
        if self.register_tainted(event.dest_reg):
            self.register_origin[event.dest_reg] = TaintOrigin(
                from_address=event.src_addr, pc=event.pc
            )
        else:
            self.register_origin[event.dest_reg] = None

    def _on_reg_to_reg(self, event: DeliveredEvent) -> None:
        super()._on_reg_to_reg(event)
        if event.dest_reg is not None and event.src_reg is not None:
            self.register_origin[event.dest_reg] = self.register_origin.get(event.src_reg)

    def _on_reg_to_mem(self, event: DeliveredEvent) -> None:
        super()._on_reg_to_mem(event)
        if event.dest_addr is None:
            return
        if self.register_tainted(event.src_reg):
            origin = self.register_origin.get(event.src_reg) or TaintOrigin(
                from_address=event.dest_addr, pc=event.pc
            )
            self._record_origin(
                event.dest_addr, event.size, TaintOrigin(origin.from_address, event.pc)
            )
        else:
            self._record_origin(event.dest_addr, event.size, None)

    def _on_mem_to_mem(self, event: DeliveredEvent) -> None:
        super()._on_mem_to_mem(event)
        if event.dest_addr is None or event.src_addr is None:
            return
        if self.memory_tainted(event.src_addr, event.size):
            self._record_origin(
                event.dest_addr, event.size,
                TaintOrigin(from_address=event.src_addr, pc=event.pc),
            )
        else:
            self._record_origin(event.dest_addr, event.size, None)

    def _on_imm_to_mem(self, event: DeliveredEvent) -> None:
        super()._on_imm_to_mem(event)
        if event.dest_addr is not None:
            self._record_origin(event.dest_addr, event.size, None)

    def _on_taint_source(self, event: DeliveredEvent) -> None:
        super()._on_taint_source(event)
        if event.dest_addr is not None and event.size:
            self._record_origin(
                event.dest_addr, event.size,
                TaintOrigin(from_address=event.dest_addr, pc=event.pc),
            )
