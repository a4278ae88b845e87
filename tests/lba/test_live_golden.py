"""Golden digests of live monitoring.

The conformance matrix and the fuzz oracle compare engines with one
another, so a change to the cache model, the producer's cost accounting,
the dispatcher or the coupling model that moves every engine at once would
pass them.  These digests pin the live platform's own numbers.

* ``DUAL_CORE``: one :meth:`LBASystem.run` per (lifeguard, Figure-11
  technique stack) pair of :data:`TECHNIQUE_STACKS`, on ``bzip2`` and
  ``gcc`` (``pbzip2`` for LockSet) at scale 0.3.
* ``THREADED``: the other multithreaded workloads, which ``DUAL_CORE``
  leaves out: LockSet under every technique stack on ``blast``,
  ``pbunzip2``, ``water_nq`` and ``zchaff``, and MemCheck under its full
  stack on all five, so the interleave of
  :class:`repro.isa.threads.ThreadedMachine` is pinned on each of them.
* ``SMALL_CACHES``: dual-core runs with caches small enough to evict and
  write back, which the Table 2 caches never do at this scale.

Each digest covers the timing breakdown, the producer's record counts, the
dispatch, accelerator and mapper statistics, the reports, the
:class:`CacheStats` of every cache in the hierarchy and its
``memory_accesses``.  Values are hashed field by field through ``repr``,
with enums by value, so the digests do not depend on Python's ``hash()``.

To print fresh digests after an intentional change to simulated
behaviour::

    PYTHONPATH=src python tests/lba/test_live_golden.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.core.config import CacheConfig, MemoryHierarchyConfig
from repro.experiments.harness import TECHNIQUE_STACKS, make_config
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS, LockSet, MemCheck
from repro.workloads.base import MULTITHREADED_WORKLOADS, get_workload

SCALE = 0.3
SMALL_HIERARCHY = MemoryHierarchyConfig(
    l1i=CacheConfig(1024, 64, 2, 1),
    l1d=CacheConfig(1024, 64, 2, 1),
    l2=CacheConfig(4096, 64, 4, 10),
)

DUAL_CORE = {
    ('AddrCheck', 'BASE', 'bzip2'): "9816f38ebcfe4781c71b283aa3f0539db1bc05b872bbe85872494a0ebc83a6b8",
    ('AddrCheck', 'LMA', 'bzip2'): "6d2e27a215f116b29b3bd5831af3c4b322ed598fc8d486916fbee4bbbf30bd54",
    ('AddrCheck', 'LMA+IF', 'bzip2'): "d2136d5d0b293a7d851b04c4413aafe9c6995af80b309677aa10ab5e17b40704",
    ('AddrCheck', 'BASE', 'gcc'): "949e405b80afeb5a0eec1d11dd445b7b665ae7c6ed93754e726dd8ff90f3f54e",
    ('AddrCheck', 'LMA', 'gcc'): "e257b0148c8acd9b43a0396fca513289dadbb51204b09b794351597f72476d24",
    ('AddrCheck', 'LMA+IF', 'gcc'): "262028eec475ed018d9bd6a927796949436ab8f5d0fa1a61c41d6fa7bafbdf5a",
    ('MemCheck', 'BASE', 'bzip2'): "b9989beb55309836b19d09191bfc825421c068da43e5cce594100866e98bc7a8",
    ('MemCheck', 'LMA', 'bzip2'): "1fc237f792d85e78d8a0f0e948ff48f0396a978591ed50e2d969d107f85fcefc",
    ('MemCheck', 'LMA+IT', 'bzip2'): "e74ae6394d576f62bbcdef7ed50e1d0ace3241309bd4103435d782d22e0b0b6b",
    ('MemCheck', 'LMA+IT+IF', 'bzip2'): "7860c9db6e6e6d7dad47ecb3787e22f5d7745fa0ea3703e2d1795d2353385f98",
    ('MemCheck', 'BASE', 'gcc'): "47f8550fcbe9f3374c6b0ca7944ef9bf69b6dcbcff5926827bb4a65b74a5ffae",
    ('MemCheck', 'LMA', 'gcc'): "76e26c3bbe8b2181e63817c6ef3055120451e04201be2666b6e8323569f09e31",
    ('MemCheck', 'LMA+IT', 'gcc'): "c2e2222838ffd0b2d13a7964d21b11d6bf7f6ea3a0192f678fbd65b648398b4f",
    ('MemCheck', 'LMA+IT+IF', 'gcc'): "3bc3f62ef49c0eba314580661ba4cd6946a1cdb973f44b965242ae8b5a97f50c",
    ('TaintCheck', 'BASE', 'bzip2'): "6a6524d337b4f526eb2f7a88585636de6cba660fd600b5de7d63138c1f49c8d8",
    ('TaintCheck', 'LMA', 'bzip2'): "64fe60a82c2580f0c5dc7b859ecd233b65d6a716f3903f306598681e54fca030",
    ('TaintCheck', 'LMA+IT', 'bzip2'): "722bbacd9b07b8a4c693781c9133c272ca81ceabb31e42dd391876f6714be2b4",
    ('TaintCheck', 'BASE', 'gcc'): "9fe8b5fc6b80e269f0c218e6899840413a49137220e129cfbb9adaa952a2c28f",
    ('TaintCheck', 'LMA', 'gcc'): "15893b9cbfb321bf4fc283ee538411c42b40821fadb2a2bb0763bd3ab004adef",
    ('TaintCheck', 'LMA+IT', 'gcc'): "959fd0a4fdc9786469c009065f2ced896f40fd0a29d8d89689cc22328752bc5d",
    ('TaintCheckDetailed', 'BASE', 'bzip2'): "b50b886f2fa8e274d0308823a65bc5957da61f4b9434589237dc8e223c5f1303",
    ('TaintCheckDetailed', 'LMA', 'bzip2'): "2e6302f3207e59265ef32958b8bfa7239526304c9216ecdc06e93125ba67e055",
    ('TaintCheckDetailed', 'LMA+IT', 'bzip2'): "272673fda2abaae92ed34bebbd1bd5045868808c6fd953e185970bc2814f5592",
    ('TaintCheckDetailed', 'BASE', 'gcc'): "a5b430ea01e15df80f49560402177d20bd673ff280fb7f8a51b4449c3375eff1",
    ('TaintCheckDetailed', 'LMA', 'gcc'): "5aec511d9c0ba966e4ca31b64278c71de5bb912b00f3a7ef56b0e429c1da8327",
    ('TaintCheckDetailed', 'LMA+IT', 'gcc'): "60eaf7b226d2207162993ae9d28a1b54ed2183fe9398079f8c3be516ba686e6c",
    ('LockSet', 'BASE', 'pbzip2'): "e04162c22800eebbda82731d23125f791a889a189f0b686f82d30093b712dfb0",
    ('LockSet', 'LMA', 'pbzip2'): "604d0388cd160d82c540582beb2c1230b9df61513e0d3789948dcff9d70f3477",
    ('LockSet', 'LMA+IF', 'pbzip2'): "75687cb8ae201c87b7daa45b8d1627699a83d60b0e83d1a810bda463cc243714",
}

THREADED = {
    ('LockSet', 'BASE', 'blast'): "a19ace38e10a38eb19b17d700f589d4e36e65e8bb8d5f502e231669cf39e24f6",
    ('LockSet', 'LMA', 'blast'): "5efca887eec63a0d23ae44082e3fa3ea2bdd592119fda2f041c1bad9e77a178f",
    ('LockSet', 'LMA+IF', 'blast'): "5efca887eec63a0d23ae44082e3fa3ea2bdd592119fda2f041c1bad9e77a178f",
    ('LockSet', 'BASE', 'pbunzip2'): "d6ea881c25a84b850cf14aa295aafbff236d4da07e6a4118eff7c70f6027bb9d",
    ('LockSet', 'LMA', 'pbunzip2'): "c460a3c9b0737fc285c5613105179afa324c37b9c5811efc2a69e811a1b04762",
    ('LockSet', 'LMA+IF', 'pbunzip2'): "bee0fbe688e8bd56f6ce176c655e2f9375f8855270cba03ecc2930a6fdfe1256",
    ('LockSet', 'BASE', 'water_nq'): "62680e7519ef93cb5658842b8e598861188a1a3eaaa5e1f1366d6b2d3f3cd17c",
    ('LockSet', 'LMA', 'water_nq'): "fea0ad295923564bd8f0837e27d7210126e02f080a5099591b049905b92a1326",
    ('LockSet', 'LMA+IF', 'water_nq'): "fea0ad295923564bd8f0837e27d7210126e02f080a5099591b049905b92a1326",
    ('LockSet', 'BASE', 'zchaff'): "e6a811f8ad61ffb9721b788ef582ca4b79b49b49247059777e6227d9ae67f9bc",
    ('LockSet', 'LMA', 'zchaff'): "f033d81b30028d9e2420f9efc16fdd9c58f6a45333db085bc0d313aca54d577e",
    ('LockSet', 'LMA+IF', 'zchaff'): "2fe1813adceb1d34bddd0253dce1cf25816ba9aca8c4e7ac3ff66f8e20f3de26",
    ('MemCheck', 'LMA+IT+IF', 'blast'): "9c9542c41da8f08e5c82221f331a0868419d73028ad3372ee7ea3c53a5647de6",
    ('MemCheck', 'LMA+IT+IF', 'pbzip2'): "f53e8c86fea84c92c63a1194ef6746694e3d2f12b856fa43ef8523184fb02e09",
    ('MemCheck', 'LMA+IT+IF', 'pbunzip2'): "3fd7d8f846370d7386ee5917ce1e7b40bfbeb2caf730cdd7f744d41dfb1a471a",
    ('MemCheck', 'LMA+IT+IF', 'water_nq'): "886ac5e70ffe67b3ed304fd53b55f06e96a92be572cccba22bd8163e1cea27dc",
    ('MemCheck', 'LMA+IT+IF', 'zchaff'): "26b5ab16aa61916b19b6574b4dc71e8a1976a9dc61c6ed41164668e925c11d19",
}

SMALL_CACHES = {
    ('MemCheck', 'BASE', 'gcc'): "3b6aa7f98646b5fc72abd63a7aa096a33c08fad90a059c14e39dcffd6ef35d96",
    ('TaintCheck', 'LMA+IT', 'bzip2'): "9810e440a2f6046bd67efbc0763e6bb285b0a4d3c618f2ecd4e7661c56dd8f33",
}


def dual_core_cases():
    """``(lifeguard, stack label, program)`` of every pinned dual-core run."""
    for lifeguard, stacks in TECHNIQUE_STACKS.items():
        programs = ("pbzip2",) if lifeguard == LockSet.name else ("bzip2", "gcc")
        for program in programs:
            for label, *_techniques in stacks:
                yield lifeguard, label, program


def threaded_cases():
    """``(lifeguard, stack label, program)`` of every pinned threaded run."""
    for program in MULTITHREADED_WORKLOADS:
        if program != "pbzip2":
            for label, *_techniques in TECHNIQUE_STACKS[LockSet.name]:
                yield LockSet.name, label, program
    for program in MULTITHREADED_WORKLOADS:
        yield MemCheck.name, TECHNIQUE_STACKS[MemCheck.name][-1][0], program


def stable(value):
    """A ``repr``-stable form of ``value``: dataclasses by field, enums by value."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return tuple(
            (item.name, stable(getattr(value, item.name)))
            for item in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(stable(item) for item in value)
    return value


def hierarchy_state(hierarchy):
    caches = []
    for core in range(hierarchy.num_cores):
        private = hierarchy.core(core)
        caches += [private.l1i, private.l1d]
    caches.append(hierarchy.l2)
    return (
        tuple((cache.name, stable(cache.stats)) for cache in caches),
        hierarchy.memory_accesses,
    )


def producer_state(producer):
    """The producer's record counts.  Its summed application cycles are
    ``TimingBreakdown.app_alone_cycles``, which ``result.timing`` pins."""
    return tuple(
        (name, getattr(producer, name)) for name in ("records", "instructions", "annotations")
    )


def monitoring_state(result):
    return stable((
        result.timing, result.dispatch, producer_state(result.producer),
        result.accelerator, result.mapper, result.reports,
    ))


def digest(state) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()


def technique_config(lifeguard: str, label: str):
    for stack_label, lma, it, idempotent_filter in TECHNIQUE_STACKS[lifeguard]:
        if stack_label == label:
            return make_config(lma, it, idempotent_filter)
    raise KeyError(label)


def dual_core_digest(lifeguard: str, label: str, program: str, hierarchy=None) -> str:
    config = technique_config(lifeguard, label)
    if hierarchy is not None:
        config = dataclasses.replace(config, hierarchy=hierarchy)
    machine = get_workload(program, scale=SCALE).build_machine()
    system = LBASystem(machine, ALL_LIFEGUARDS[lifeguard](), config, workload_name=program)
    result = system.run(label)
    return digest((monitoring_state(result), hierarchy_state(system.hierarchy)))


def test_every_technique_stack_is_pinned():
    assert set(DUAL_CORE) == set(dual_core_cases())
    assert len(DUAL_CORE) == 29


@pytest.mark.parametrize(
    "lifeguard,label,program", sorted(DUAL_CORE), ids="-".join
)
def test_dual_core_run_matches_golden_digest(lifeguard, label, program):
    assert dual_core_digest(lifeguard, label, program) == DUAL_CORE[lifeguard, label, program]


def test_every_threaded_workload_is_pinned():
    assert set(THREADED) == set(threaded_cases())
    assert len(THREADED) == 17


@pytest.mark.parametrize(
    "lifeguard,label,program", sorted(THREADED), ids="-".join
)
def test_threaded_run_matches_golden_digest(lifeguard, label, program):
    assert dual_core_digest(lifeguard, label, program) == THREADED[lifeguard, label, program]


@pytest.mark.parametrize(
    "lifeguard,label,program", sorted(SMALL_CACHES), ids="-".join
)
def test_small_cache_run_matches_golden_digest(lifeguard, label, program):
    actual = dual_core_digest(lifeguard, label, program, SMALL_HIERARCHY)
    assert actual == SMALL_CACHES[lifeguard, label, program]


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    print("DUAL_CORE = {")
    for case in dual_core_cases():
        print(f"    {case!r}: \"{dual_core_digest(*case)}\",")
    print("}\n\nTHREADED = {")
    for case in threaded_cases():
        print(f"    {case!r}: \"{dual_core_digest(*case)}\",")
    print("}\n\nSMALL_CACHES = {")
    for case in (("MemCheck", "BASE", "gcc"), ("TaintCheck", "LMA+IT", "bzip2")):
        print(f"    {case!r}: \"{dual_core_digest(*case, SMALL_HIERARCHY)}\",")
    print("}")
