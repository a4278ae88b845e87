"""The fuzz program generator: determinism, structure, bug injection.

The golden digests pin the *exact* lowered instruction streams of fixed
seeds.  Because every random decision is drawn from ``random.Random(seed)``
(whose Mersenne-Twister sequence and ``randrange``/``choices`` algorithms
are stable across CPython versions) and lowering iterates only ordered
containers, these digests must never change without a deliberate generator
change -- a drift here means seeds stopped being portable and every stored
repro file is invalidated.
"""

import random

import pytest

from repro.workloads.generator import (
    BUG_CLASSES,
    FuzzConfig,
    FuzzProgramSpec,
    build_fuzz_programs,
    generate_spec,
    manifest_for,
    profile_for_seed,
    program_digest,
    spec_digest,
)

#: seed -> sha256 of the lowered programs (regenerate only on deliberate
#: generator changes, and say so in the commit message).
GOLDEN_DIGESTS = {
    0: "c25b43cac3faeaa2c1433801b9c20e6656d7947653b3f8f8f88d08d3d41a8663",
    1: "58191f91304a62bac1dc7cc7e9106312402d76f4ee2707cc738d606e63e56d20",
    2: "e6b51553182ac24b80d6efa2d918df3d40ab4b60aa6b722b4334e63ca0a96f89",
    3: "fdb45701bbe78020ec230c1b90dcd518ccf237719ed0ab3116358ce92e9df3f6",
    4: "071580a9185a63bbfee603964a7eba163bc9520b6a15ab722cfa97148fbce551",
    5: "4ae6f625ffb08515713651aed4ca42b053eb22c6fe5ad27ea65180c3c2c9c357",
    6: "3a79b44ed0c245fa60be181a387c7df2152576b413ebbbf752284e8c032b39b4",
    7: "26a644b8c4c23e1fa529191bb2150e9e4ccd4282eebba98af4bfd8ab082f449f",
}


class TestDeterminism:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
    def test_golden_seed_digest(self, seed):
        assert spec_digest(generate_spec(seed)) == GOLDEN_DIGESTS[seed]

    def test_same_seed_same_spec_and_programs(self):
        first, second = generate_spec(42), generate_spec(42)
        assert first == second
        assert program_digest(build_fuzz_programs(first)) == program_digest(
            build_fuzz_programs(second)
        )

    def test_different_seeds_differ(self):
        assert spec_digest(generate_spec(1)) != spec_digest(generate_spec(9))

    def test_generation_does_not_depend_on_global_random_state(self):
        random.seed(123)
        first = generate_spec(7)
        random.seed(987654)
        random.random()
        second = generate_spec(7)
        assert first == second


class TestScenarioMapping:
    def test_every_block_of_eight_covers_all_bug_classes(self):
        bugs = {generate_spec(seed).bug for seed in range(8, 16)}
        assert bugs == set(BUG_CLASSES) | {""}

    def test_tier1_block_covers_clean_and_all_bugs(self):
        specs = [generate_spec(seed) for seed in range(25)]
        assert {spec.bug for spec in specs} == set(BUG_CLASSES) | {""}
        assert any(spec.threads > 1 for spec in specs)
        assert any(spec.tainted_input for spec in specs)

    def test_profiles_force_bug_preconditions(self):
        for seed in range(64):
            config = profile_for_seed(seed)
            if config.bug == "unlocked_shared_write":
                assert config.threads >= 2
            if config.bug == "taint_to_jump":
                assert config.tainted_input

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(bug="unlocked_shared_write", threads=1)
        with pytest.raises(ValueError):
            FuzzConfig(bug="taint_to_jump", tainted_input=False)
        with pytest.raises(ValueError):
            FuzzConfig(bug="no_such_bug")


class TestSpecStructure:
    def test_one_op_stream_per_thread(self):
        spec = generate_spec(9)
        assert spec.threads >= 2
        assert len(spec.ops) == spec.threads
        assert len(build_fuzz_programs(spec)) == spec.threads

    def test_bug_seed_contains_exactly_one_bug_op(self):
        spec = generate_spec(3)
        bug_ops = [
            op
            for thread_ops in spec.ops
            for op in thread_ops
            if op.kind.startswith("bug_")
        ]
        assert len(bug_ops) == 1
        assert bug_ops[0].kind == f"bug_{spec.bug}"
        assert any(
            op.kind.startswith("bug_") for op in spec.ops[spec.bug_thread]
        )

    def test_manifest_ground_truth(self):
        clean = manifest_for(generate_spec(0))
        assert clean.is_clean and not clean.detectors
        race = manifest_for(generate_spec(5))
        assert race.bug == "unlocked_shared_write"
        assert race.detectors == ("LockSet",)
        assert race.kinds == ("data_race",)

    def test_spec_dict_round_trip(self):
        spec = generate_spec(13)
        assert FuzzProgramSpec.from_dict(spec.to_dict()) == spec
