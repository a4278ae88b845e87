"""Shared helpers for the integer-counter statistics dataclasses.

Field-wise export and comparison of any counter dataclass
(:class:`DispatchStats`, :class:`AcceleratorStats`, ...), for JSON output
and for conformance checks that name the counters that diverged.
"""

from __future__ import annotations

import dataclasses


def stats_as_dict(stats):
    """Field-name -> value dict of a stats dataclass (declaration order)."""
    return {
        stats_field.name: getattr(stats, stats_field.name)
        for stats_field in dataclasses.fields(stats)
    }


def stats_diff(a, b, ignore=()):
    """Differing fields between two same-type stats dataclasses.

    Returns ``{field: (a_value, b_value)}`` for every field outside
    ``ignore`` whose values differ -- empty when the objects agree, which
    makes it the equality helper for conformance checks that also *names*
    the divergent counters on failure.
    """
    if type(a) is not type(b):
        raise TypeError(f"cannot diff {type(a).__name__} against {type(b).__name__}")
    diffs = {}
    for stats_field in dataclasses.fields(a):
        if stats_field.name in ignore:
            continue
        left = getattr(a, stats_field.name)
        right = getattr(b, stats_field.name)
        if left != right:
            diffs[stats_field.name] = (left, right)
    return diffs
