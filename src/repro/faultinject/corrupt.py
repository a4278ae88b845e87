"""Deterministic trace-file damage: bit flips, truncation, byte patches.

These helpers modify a trace file *in place* (chaos tests always operate
on a copy).  All randomness is seeded, so a (path, seed) pair produces
the same damage every run -- the property the chaos suite relies on to
assert exact quarantine reports.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.trace.tracefile import TraceReader


def flip_chunk_bytes(path, chunk: int, seed: int = 0, flips: int = 8) -> List[int]:
    """XOR ``flips`` seeded random bytes inside chunk ``chunk``'s payload.

    Returns the absolute file offsets that were flipped.  The damage is
    confined to the stored chunk bytes, so the header/index still parse
    and only that chunk fails its CRC.
    """
    with TraceReader(path) as reader:
        info = reader.chunks[chunk]
    rng = random.Random(seed)
    flips = min(flips, info.stored_len)
    offsets = sorted(
        info.offset + delta
        for delta in rng.sample(range(info.stored_len), flips)
    )
    with open(path, "r+b") as handle:
        for offset in offsets:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            # A non-zero seeded mask guarantees the byte actually changes.
            handle.write(bytes([byte ^ rng.randint(1, 255)]))
    return offsets


def truncate_trace(path, fraction: float = 0.5, keep_bytes: Optional[int] = None) -> int:
    """Truncate the file to ``keep_bytes`` (or ``fraction`` of its size).

    Models a capture interrupted mid-write: the index at the tail is the
    first casualty, so :class:`~repro.trace.tracefile.TraceReader` must
    reject the file at open.  Returns the new size.
    """
    with open(path, "r+b") as handle:
        handle.seek(0, 2)
        size = handle.tell()
        keep = keep_bytes if keep_bytes is not None else int(size * fraction)
        keep = max(0, min(keep, size))
        handle.truncate(keep)
    return keep


def corrupt_byte(path, offset: int, xor: int = 0xFF) -> int:
    """XOR the single byte at ``offset``; returns the new byte value.

    Precise surgical damage for hitting a specific structure (an index
    entry field, the totals footer, a header field).
    """
    if not 1 <= xor <= 0xFF:
        raise ValueError(f"xor must be a non-zero byte, got {xor}")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        value = handle.read(1)[0] ^ xor
        handle.seek(offset)
        handle.write(bytes([value]))
    return value
