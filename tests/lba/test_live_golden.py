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

Each digest covers the timing breakdown, the dispatch, producer (log bytes
included), accelerator and mapper statistics, the reports, the
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
    ('AddrCheck', 'BASE', 'bzip2'): "9682df32fdefc64597d2a48c28d0831844c74a968ba7328776616af25287f9ce",
    ('AddrCheck', 'LMA', 'bzip2'): "39363a3442a7305dd85a369f6bca2f92cc1c8c55112bb275a36ff3339eb06e0b",
    ('AddrCheck', 'LMA+IF', 'bzip2'): "ecd6a14d479268b1c1f3f251c37962fc8d6bd3bb959b35230e5f38a97d2dad97",
    ('AddrCheck', 'BASE', 'gcc'): "e7c4a5147d9b7e53246042c8e089bbf85b58154f63a023b557adb9b9c999f389",
    ('AddrCheck', 'LMA', 'gcc'): "89e0a3dbae21caaf94ee143cf01df77d5d708009fdb2d7a98c1106052982c15a",
    ('AddrCheck', 'LMA+IF', 'gcc'): "f6f796ffbe0fd5aa7990f1080f661118ae9ad16f2e7bba31b7676a4bf42b7654",
    ('MemCheck', 'BASE', 'bzip2'): "c80ac75bed1e2f66393445370cca245098daf9c973305852440e5109f07724d4",
    ('MemCheck', 'LMA', 'bzip2'): "e7f2473684d63853524b978345a2c893c6f58b0775be57a4ec5c9ab2ac6a9833",
    ('MemCheck', 'LMA+IT', 'bzip2'): "afe1d3309dfd61013270e17cf80fcec5bd0dfeb9a46804bf609159e377566750",
    ('MemCheck', 'LMA+IT+IF', 'bzip2'): "b00fa4c10a1d3bff7a9fa5cb2d73c277ceb5bea29f71ad181367ac1de161e683",
    ('MemCheck', 'BASE', 'gcc'): "22f1bf32bfa80b82c56f9126a569ac763a5279632ed9640e78a9948def4e2ee7",
    ('MemCheck', 'LMA', 'gcc'): "471049d8622cc464a97a006ab3e1829bc508c9538a2ae5d08612128f60ff4e99",
    ('MemCheck', 'LMA+IT', 'gcc'): "973f524052c22b83f77adefae3c6ed69488f61f75aa469ac3b8e14becf3d2bba",
    ('MemCheck', 'LMA+IT+IF', 'gcc'): "6a57de5f4c6c9d649fd5b67e56c2f17a37da41b4f62465a1cb9b1a63545aad6a",
    ('TaintCheck', 'BASE', 'bzip2'): "4af2e8bf69bffd73b3d3e0cf46914576d8c0487d79722113345dd74046e97255",
    ('TaintCheck', 'LMA', 'bzip2'): "a4f8d2a38c27f5c30f7fc7fa1c5d4bd107524af4ff2e5ea92c5e4c919a148238",
    ('TaintCheck', 'LMA+IT', 'bzip2'): "f4e6f4ab41af92f113a8301c3a306bb3ffe4d14cc3b9a9020aa1ba370850645d",
    ('TaintCheck', 'BASE', 'gcc'): "acf29b376c968749a2ee2b393d50adb4823eedd1cca5b6276616ef7abf302c81",
    ('TaintCheck', 'LMA', 'gcc'): "b9cac2dd5317d70ecfd9850c75c9c1803db056e2527770526fb9e99793decaf5",
    ('TaintCheck', 'LMA+IT', 'gcc'): "44580c47969bd1d1474096750088557197431f564cbce42c3c6600429a858315",
    ('TaintCheckDetailed', 'BASE', 'bzip2'): "d7162bdf3089fb12f11981a7704243348aa51df71d19c2848bfab149a8cbb349",
    ('TaintCheckDetailed', 'LMA', 'bzip2'): "21e2891ad29ef6020dca6ff924740b5c3ec51ee0625d54030aba913e036012d8",
    ('TaintCheckDetailed', 'LMA+IT', 'bzip2'): "a596ba0a906e4c214d7e4cc79d25cf1c37d718d053df6e0e6990bb429225702f",
    ('TaintCheckDetailed', 'BASE', 'gcc'): "5dce869e198e730f5f70ba52d62d01ca977c10e9d325316774efca5e54bf2e1c",
    ('TaintCheckDetailed', 'LMA', 'gcc'): "83910647339c8eb0ea09aef0a3b4b50c66a32b3ce17160d4efe08e17c30b1b02",
    ('TaintCheckDetailed', 'LMA+IT', 'gcc'): "9ffe91481f87210f10d03284767f2e8697d40f5a5de6bea00c66886c31b61b91",
    ('LockSet', 'BASE', 'pbzip2'): "a5fac33ae62e5da4f927f38fda04b8382beaf06a1feeeb37482909b0c2e7dbbe",
    ('LockSet', 'LMA', 'pbzip2'): "e5b69918ec4807c65c2f4586e980853f6a5216ac5284991ae9c9984373fc236d",
    ('LockSet', 'LMA+IF', 'pbzip2'): "91e105454381aaa8360de81ab41ef1dae7580e0ab0cf76e9a96ffc009a0d224d",
}

THREADED = {
    ('LockSet', 'BASE', 'blast'): "befff81b656c6b6dc40f49842c72ea05b4fb513edbd079269ebbb0f81ba77148",
    ('LockSet', 'LMA', 'blast'): "52dffdc8fe0f95977509936c418525e4db2da8d9408bdee2c2c99d371f8630cc",
    ('LockSet', 'LMA+IF', 'blast'): "52dffdc8fe0f95977509936c418525e4db2da8d9408bdee2c2c99d371f8630cc",
    ('LockSet', 'BASE', 'pbunzip2'): "b80314c69765ae91b29186bf77f5c86c227bd9b930332d02f83d9033f2f07052",
    ('LockSet', 'LMA', 'pbunzip2'): "c263230c4b94ba1a148b3dc0a96ad41bababf0a6d199752d66f209e73cc25a63",
    ('LockSet', 'LMA+IF', 'pbunzip2'): "ea7bcad12ef3fc82fdb801bf532285bad00d94b4949d4b233c99fc4a821f125b",
    ('LockSet', 'BASE', 'water_nq'): "f4e265f1f8380154aa733d054d39da89beaff6a97fe545c6717c2d396c96fc02",
    ('LockSet', 'LMA', 'water_nq'): "156aaf2f9e825067c729dd8255645fcb0e8c85001d0e8f1b0e0223bad5b32b25",
    ('LockSet', 'LMA+IF', 'water_nq'): "156aaf2f9e825067c729dd8255645fcb0e8c85001d0e8f1b0e0223bad5b32b25",
    ('LockSet', 'BASE', 'zchaff'): "5329f9ec2c12faf23917652454fc7bf718819de15ad4e5615ca20ee36f4985d1",
    ('LockSet', 'LMA', 'zchaff'): "8f1e75d4777fd65018863f6d45b6a2b0b43c277b59dba65f8e77966a12783dfc",
    ('LockSet', 'LMA+IF', 'zchaff'): "a4c80e87986f136ba4eab459758634e3839e7ceaba5b7e31c5922f5c5868267f",
    ('MemCheck', 'LMA+IT+IF', 'blast'): "1527215f8113a8b279dac21eb86e72ac00a79d585afc6fd0410bdc53ce60d268",
    ('MemCheck', 'LMA+IT+IF', 'pbunzip2'): "e36075a1725075828b6894806c03c325bc51155278a790fb77860f1353442712",
    ('MemCheck', 'LMA+IT+IF', 'pbzip2'): "a450e6a470a358999b74b5a4fdae3a006716503ab1993ebdac6f267be8dab52a",
    ('MemCheck', 'LMA+IT+IF', 'water_nq'): "85a47c8aa994d979c6bf174a604f514df69c9099359aa908fab1e9f6cb0006b3",
    ('MemCheck', 'LMA+IT+IF', 'zchaff'): "41fb0bcfb0ccb7f147fc98d63357efb8a84be81670cc636be934e1b524780b22",
}

SMALL_CACHES = {
    ('MemCheck', 'BASE', 'gcc'): "17790f1ba71db25cd7751ee45bc7762167058b48d44f55e1ac782429ee306853",
    ('TaintCheck', 'LMA+IT', 'bzip2'): "aa1417eea50c68acf35b46c48b4ae506085a777c152ce7406e83ac407150c3b5",
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


def monitoring_state(result):
    return stable((
        result.timing, result.dispatch, result.producer, result.accelerator,
        result.mapper, result.reports,
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
