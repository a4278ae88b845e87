"""Property tests: the two-level shadow map against a plain-dict reference model.

The flat ``bytearray``/``array``-backed chunk storage must behave exactly
like the obvious model -- a dict from element-aligned address to element
value, with ``write_bits``/``fill_bits`` decomposed into per-byte field
updates.  Hypothesis drives interleaved write/fill/read sequences whose
addresses are biased onto level-2 chunk boundaries, where the vectorized
slice-assignment fast path splits its work, and checks

* every element and bit-field read matches the model,
* ``metadata_bytes()`` accounting is chunk granular (reserved chunks x
  chunk size).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.memory.shadow import TwoLevelShadowMap

#: Base application address the generated accesses spread out from.
BASE = 0x0900_0000


class DictModel:
    """Reference semantics: element-aligned dict plus touched-element set."""

    def __init__(self, app_bytes_per_element: int, element_size: int) -> None:
        self.per_element = app_bytes_per_element
        self.element_mask = (1 << (8 * element_size)) - 1
        self.elements = {}
        self.touched = set()

    def _base(self, address: int) -> int:
        return address - address % self.per_element

    def write_element(self, address: int, value: int) -> None:
        base = self._base(address)
        self.elements[base] = value & self.element_mask
        self.touched.add(base)

    def read_element(self, address: int) -> int:
        return self.elements.get(self._base(address), 0)

    def write_bits(self, address: int, bits: int, value: int) -> None:
        mask = (1 << bits) - 1
        shift = (address % self.per_element) * bits
        element = self.read_element(address)
        element = (element & ~(mask << shift)) | ((value & mask) << shift)
        self.write_element(address, element)

    def read_bits(self, address: int, bits: int) -> int:
        shift = (address % self.per_element) * bits
        return (self.read_element(address) >> shift) & ((1 << bits) - 1)

    def fill_bits(self, start: int, size: int, bits: int, value: int) -> None:
        """Mirror the documented fill decomposition: partial edge elements
        are per-byte read-modify-writes, fully covered elements are
        overwritten with the replicated field pattern (the wide-store
        semantics the vectorized fast paths implement)."""
        value &= (1 << bits) - 1
        end = start + size
        addr = start
        while addr < end and addr % self.per_element:
            self.write_bits(addr, bits, value)
            addr += 1
        pattern = 0
        for index in range(self.per_element):
            pattern |= value << (index * bits)
        while addr + self.per_element <= end:
            self.write_element(addr, pattern)
            addr += self.per_element
        while addr < end:
            self.write_bits(addr, bits, value)
            addr += 1


def _offsets(boundary: int):
    """Offsets biased onto the interesting boundaries of the structure."""
    near_boundary = st.builds(
        lambda chunk, delta: max(0, chunk * boundary + delta),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-8, max_value=8),
    )
    return st.one_of(near_boundary, st.integers(min_value=0, max_value=4 * boundary))


def _operations(boundary: int):
    offsets = _offsets(boundary)
    return st.lists(
        st.one_of(
            st.tuples(st.just("write_element"), offsets,
                      st.integers(min_value=0, max_value=0xFFFF_FFFF)),
            st.tuples(st.just("write_bits"), offsets,
                      st.sampled_from([1, 2]), st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("fill"), offsets,
                      st.integers(min_value=1, max_value=3 * boundary),
                      st.sampled_from([1, 2]), st.integers(min_value=0, max_value=3)),
        ),
        max_size=30,
    )


def _apply(shadow, model, operations):
    reads = []
    for operation in operations:
        if operation[0] == "write_element":
            _, offset, value = operation
            shadow.write_element(BASE + offset, value)
            model.write_element(BASE + offset, value)
        elif operation[0] == "write_bits":
            _, offset, bits, value = operation
            shadow.write_bits(BASE + offset, bits, value)
            model.write_bits(BASE + offset, bits, value)
        else:
            _, offset, size, bits, value = operation
            shadow.fill_bits(BASE + offset, size, bits, value)
            model.fill_bits(BASE + offset, size, bits, value)
        reads.append(operation[1])
    return reads


def _assert_reads_match(shadow, model, touched_offsets):
    probes = set()
    for offset in touched_offsets:
        probes.update((offset - 1, offset, offset + 1, offset + model.per_element))
    for offset in probes:
        if offset < 0:
            continue
        address = BASE + offset
        assert shadow.read_element(address) == model.read_element(address)
        assert shadow.read_bits(address, 2) == model.read_bits(address, 2)


class TestTwoLevelAgainstDictModel:
    # level1_bits=26, level2_bits=4, element 1B covering 4 app bytes:
    # small chunks (16 elements / 64 app bytes) so sequences routinely span
    # several level-2 chunks and exercise the per-chunk fill splitting.
    def _shadow(self):
        return TwoLevelShadowMap(level1_bits=26, level2_bits=4, element_size=1)

    @settings(max_examples=120, deadline=None)
    @given(operations=_operations(boundary=64))
    def test_contents_match(self, operations):
        shadow = self._shadow()
        model = DictModel(shadow.app_bytes_per_element, shadow.element_size)
        touched = _apply(shadow, model, operations)
        _assert_reads_match(shadow, model, touched)

    @settings(max_examples=120, deadline=None)
    @given(operations=_operations(boundary=64))
    def test_metadata_bytes_is_chunk_granular(self, operations):
        shadow = self._shadow()
        model = DictModel(shadow.app_bytes_per_element, shadow.element_size)
        _apply(shadow, model, operations)
        chunk_app_span = (1 << shadow.level2_bits) * shadow.app_bytes_per_element
        written_chunks = {base // chunk_app_span for base in model.touched}
        # every written element's chunk is accounted; translation-only
        # touches may reserve more (write-free reservations are legal)
        assert shadow.allocated_chunks() >= len(written_chunks)
        assert shadow.metadata_bytes() == (
            shadow.allocated_chunks() * shadow.chunk_size_bytes()
        )

    @settings(max_examples=60, deadline=None)
    @given(operations=_operations(boundary=64))
    def test_wide_elements_match(self, operations):
        shadow = TwoLevelShadowMap(level1_bits=26, level2_bits=4, element_size=4)
        model = DictModel(shadow.app_bytes_per_element, shadow.element_size)
        touched = _apply(shadow, model, operations)
        _assert_reads_match(shadow, model, touched)
