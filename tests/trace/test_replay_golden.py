"""Golden digests of offline replay.

The conformance matrix compares the columnar engine with the scalar
``EventDispatcher.consume`` loop, so a change to code both of them share
-- the Inheritance Tracker, the Idempotent Filter, the M-TLB, the
metadata mapper or a lifeguard handler -- that moves them together passes
it.  These digests pin what replay itself reports.

Every registered workload (the SPEC analogues and the multithreaded
Table 3 suite) is captured at scale 0.5 and replayed with
:func:`replay_trace` under each of the five lifeguards, default
configuration.  Each digest covers the :class:`DispatchStats`,
:class:`AcceleratorStats`, the IT, Idempotent-Filter and M-TLB counters,
the mapper counters, the accelerator's ``state_signature()``, the total
lifeguard cycles and the reports in order.  Values are hashed field by
field through ``repr``, with enums by value, so the digests do not depend
on Python's ``hash()``.

To print fresh digests after an intentional change to replay behaviour::

    PYTHONPATH=src python tests/trace/test_replay_golden.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import tempfile
from unittest import mock

import pytest

import repro.trace.replay as replay_module
from repro.experiments.harness import capture_trace
from repro.lifeguards import ALL_LIFEGUARDS
from repro.workloads.base import workload_names

SCALE = 0.5
LIFEGUARDS = sorted(ALL_LIFEGUARDS)
WORKLOADS = workload_names() + workload_names(multithreaded=True)

GOLDEN = {
    ('AddrCheck', 'bzip2'): "3b684f396392825c6a21f9db2c31a48ecb82ad07b0e2e175807bb190b4ef1408",
    ('LockSet', 'bzip2'): "4a3bf9764be0b960e411781f42f31890b6f5e92923cc3d19a74053994e7ce330",
    ('MemCheck', 'bzip2'): "e3bcac4c3d6702c54d05efa0a11cff94a4e8053fada3004fc10b1b59b016ba5b",
    ('TaintCheck', 'bzip2'): "c404698b27c522d98fea4c3727ce0076828d8fdc51bb022b4e1bf229f7e3a3bf",
    ('TaintCheckDetailed', 'bzip2'): "deafa3e51bef926baaad986a48307f4e1de880e7c4ee265d10caad02aa0ca4a7",
    ('AddrCheck', 'crafty'): "193a0b5e2aaf70db7f5337aa2265ba3c623d2df130d8c79204801305ceafd52c",
    ('LockSet', 'crafty'): "bd832f8b4758a763b3b26e2ac223a22bb04e8dbf5838b03d9d6a784790d9c6b7",
    ('MemCheck', 'crafty'): "0cd2d621158c513c24e292ab0a7c59dba27588c378c78f7d1532b332ec2ce06e",
    ('TaintCheck', 'crafty'): "1759769180823f04037725e42bd24abac5b2ba38147c7088f5650addae329fc8",
    ('TaintCheckDetailed', 'crafty'): "681e4e15deaf3a737b487d40879c89ac18bba1c67d799750f471d499e3dd6264",
    ('AddrCheck', 'eon'): "a658c00338d09c02217cc26f3bad6815da5fad27a4ac55a5f4f6a74236c0b830",
    ('LockSet', 'eon'): "b51e3fbdf3b3ae2a7388b086b6ef10557ed17587a56e51b7af61dacce470a5b4",
    ('MemCheck', 'eon'): "e7b9b3f44d7a56fe1ce961c9c4c4df2e50a7d490b87b3035a224101592bd79d0",
    ('TaintCheck', 'eon'): "8924db2b183e5918a2153e2d945f6d192c41cd228b44fe8f56487ffbe161107d",
    ('TaintCheckDetailed', 'eon'): "6c77d4063e9616d9fef4e265aa2df5d3caccf43a1512a9de181b9f85cbc3251f",
    ('AddrCheck', 'gap'): "4bb4e518971772b5a89ab9abb2e2934d918e140a91acde6b4e04a1d35312d695",
    ('LockSet', 'gap'): "4079963bca936aab264b4b6a493b321633191b6b17325366fad8df07c41955a9",
    ('MemCheck', 'gap'): "5373029fae3f982b1de432099b441922d1def0ff9ea94a93049bae72b660d95a",
    ('TaintCheck', 'gap'): "bbb45551ca40287745db724e9347ed8288ec5e4c6c65e6c24207dbd280dee872",
    ('TaintCheckDetailed', 'gap'): "3b067d5ea108c0d3a38e64a311e64fe92dfb1bf28bf0290d2571ffc2deb17a56",
    ('AddrCheck', 'gcc'): "5f862fd084c6fe089405f4dab329112bc5e72572f661df9c79f48692bf894d4b",
    ('LockSet', 'gcc'): "c3c72afb2b082a731b95a70668b2e6b9d024f0f8e8a8a22922a93c2e8a51b4d1",
    ('MemCheck', 'gcc'): "3969877044c8ab0c619601019fcef42c68f61a811dab91dcc63b86b97bbfd2f1",
    ('TaintCheck', 'gcc'): "bd20b8de262bf77cfc653ee32a1bec66e587357ad8b4b2260059a7ab629d5f4d",
    ('TaintCheckDetailed', 'gcc'): "8fdc2d992429a0ed1a19853cb062b9dcad2609e2563c22a838bb646877c6317c",
    ('AddrCheck', 'gzip'): "a87ba0434ea2a8ecfaf61ea39eeebaa87f1eb231ce3a925b621ee9d6c4ffdc99",
    ('LockSet', 'gzip'): "082672677bc244255e135ac2e513a1a244aa1cbbb461cdd35fee311a15d546f7",
    ('MemCheck', 'gzip'): "acf843a90bc11a61615cecd9b90007c38e48bb88606cbf95b3e6f14bda60d766",
    ('TaintCheck', 'gzip'): "196f6a5d888293f5fc7af324fee75ee3e92445cc3dd80807226e9ddaffddd7f7",
    ('TaintCheckDetailed', 'gzip'): "2b7c975d20a5c7f62389ab8542c7f2795055f235c3e9cf0b782a252cc9397553",
    ('AddrCheck', 'mcf'): "964ff1143224da9adb0521e2338089844096aa15ab691cf43ff7283460351304",
    ('LockSet', 'mcf'): "34595c83e4dcd261263deff90e8f4312e7e89545939de68a4955c2542a284469",
    ('MemCheck', 'mcf'): "896181d1c4137872029e1e1d884eaaf1e4a4072aa252b6db0660d30fa6dd872c",
    ('TaintCheck', 'mcf'): "b16ac4a23f6d4c980e4693d01be492f5c3ef9c52076b2b6c80e53e4a948f1b35",
    ('TaintCheckDetailed', 'mcf'): "beb922e6db6928456cc708c213cf91ada124c6b49aa724cdf9fbb5aade21984c",
    ('AddrCheck', 'parser'): "26f210dcec5f0574cf337fcb741e7c407c0a048db46ee3f7443bc4da3bb1a536",
    ('LockSet', 'parser'): "7eadfc6ad5753713aa41e5d1196e880a374c2a2aecc71cf1615cdbfee20a5f65",
    ('MemCheck', 'parser'): "bacc6407e5c6b5b86355bbbbcf17c4d766ddfd9ebd4e8152e8d4516337a2fd61",
    ('TaintCheck', 'parser'): "a202286e9d8332fedbaa7cf4e03caee8d3db5decbb69ebf3187ac4662e4d6a43",
    ('TaintCheckDetailed', 'parser'): "9613e39832fec624bd111dd09232a57de50c8fe8e2c121635ddb3a2cb0ba879e",
    ('AddrCheck', 'twolf'): "cd9314c8e4d9bbb05fbfa69af85cd0491ac9cfc1774a087ae73f095d6362d79f",
    ('LockSet', 'twolf'): "224ae0207a9a00bc3e19f4bb43279b4a3561ca686780a29740441b40bb17d622",
    ('MemCheck', 'twolf'): "f1a6971732c4f2536b1fa9281ddc8bfc74a98c571c1fb783e981d5c93ddb1375",
    ('TaintCheck', 'twolf'): "95c63dec77d922bfbd1237dc9e8f7838f07f1a26f2f71ce460e06ed734bc5399",
    ('TaintCheckDetailed', 'twolf'): "dd08daba4e2a3732ae681432e8e690f2ed6bf4a2811d0f3ce2ea8bbaa61387f2",
    ('AddrCheck', 'vortex'): "1529f394b22e7b9641c8366c91859fb7b9811d983616611d5a3dbc2f35c7cfed",
    ('LockSet', 'vortex'): "5dbc836f6d8d92d2226c24831632e1c8bf4ff294775ffe6db19f3f82dfb7d394",
    ('MemCheck', 'vortex'): "15bed40146d56eb62fa4dd276bd3628a200f16893c8c50bb43efc273a142461d",
    ('TaintCheck', 'vortex'): "15bed6b631860a4a9fbd84071eab0d22930bb024bb325903cb88754d29535aa0",
    ('TaintCheckDetailed', 'vortex'): "124934f2ec3787c8062bf3eb41cf00482ef9708979acabd86b57e24fe60ad070",
    ('AddrCheck', 'vpr'): "58d0429815ce393b47dd4004fbe4263ff509552e10799a31949f52c9983c3c3d",
    ('LockSet', 'vpr'): "216b4069654b17f529371a6dae56c860b4cbb5825eddca6414f62e16f3777d99",
    ('MemCheck', 'vpr'): "1db817b47d6ec67b23426c5d3439fefc51aafc0315230b6957c5979f12fa25a3",
    ('TaintCheck', 'vpr'): "e8df61444878523a3faa5b9a0ecc396e36b604f640dca6a6748ef21e571df839",
    ('TaintCheckDetailed', 'vpr'): "332aa109979f4439a8a8dae5044bc9034b56d086bd2731640eaed6f33700fdcb",
    ('AddrCheck', 'blast'): "0e290a57fb90b360b28357d590c91418ca5ccc0a380f9b90747d5df6f7cb37d4",
    ('LockSet', 'blast'): "d85393c2a4c0a51bb0328cd5923cb6c8a3ae8669de9c405d1359f8d67cc52217",
    ('MemCheck', 'blast'): "efc3a54f0436de0342ba6b09e80991a4c78a8296aa2641d90fa762a6d547c77a",
    ('TaintCheck', 'blast'): "11f8828004f9fc8e52e0dd2b44a26d07bf27ca6986bb140af47ea18304af9c49",
    ('TaintCheckDetailed', 'blast'): "5f7057ce5487367cdaa93aae3ee7eff96f643613877c10ad1539364ebe031f4c",
    ('AddrCheck', 'pbzip2'): "82e2480e7a211a3afe95fd6891e6ec14e8a941bc21b292f1adc7ce0d29285ce8",
    ('LockSet', 'pbzip2'): "1680d28d15d15bf3539aacee3736f7dc26fb52441024679d1400cadb044aab94",
    ('MemCheck', 'pbzip2'): "52b1602e89c90883accab96aab4a14fbce151fa141a7e2c8df367f872f74902e",
    ('TaintCheck', 'pbzip2'): "dfbd2750ac45a61915addfb640c676927e8c4ba0d2458029993fbe114bc042a6",
    ('TaintCheckDetailed', 'pbzip2'): "6390396eda95c96762870137b9ceee217f1691542fee8ccfb2d195d6cceead4c",
    ('AddrCheck', 'pbunzip2'): "017af14b8e55fe5bd2153991d202e4f73c7c7f5b9ad6f57e8b294b28829dd7c9",
    ('LockSet', 'pbunzip2'): "94642041c0cc33d6f8e1b404d4d6a0fa81f2ea5b7cdedcda362777ec5d59c0e3",
    ('MemCheck', 'pbunzip2'): "f26f6030b52ec5acaefed5e11251dd0f845d16cc417689a152753090dadfcf56",
    ('TaintCheck', 'pbunzip2'): "f68a36c26a0bc87de282b812bc7c3fa4b9d413a5fceb54afdbe02bd1d85d2995",
    ('TaintCheckDetailed', 'pbunzip2'): "181b896eef8464a0ab742b84cb5bf603cfd770d08e17b6def96fd3efa4045d06",
    ('AddrCheck', 'water_nq'): "31c922a7e5db23e04715f91302dc0679db9daf8afe817743b2e1f84897dd7d0c",
    ('LockSet', 'water_nq'): "387cabab7c1c0b64cb83e6e2966e237b9eda773d26d67bfdfc732e7272c3a103",
    ('MemCheck', 'water_nq'): "b0484682ada0f2b1c3cecde43b21c48928715f49394cfd84aaadd96eea16a024",
    ('TaintCheck', 'water_nq'): "8bc76d534578a3b2df69d1a59d1ed8f7f05c3f2d67ef4fcb664350d4f8080f21",
    ('TaintCheckDetailed', 'water_nq'): "20cfafb11dc0a3e35acf4edd4d245d21a659e863e38c2bc29f2ae41bd77f106c",
    ('AddrCheck', 'zchaff'): "b0a2e0523aa13964b23216328c954e4da8ebf09a5af5e076a496dca576a8df30",
    ('LockSet', 'zchaff'): "6c145579168b5a1c0c68fb9033624270953c86c67fb2c4c8fa87516521102bb0",
    ('MemCheck', 'zchaff'): "7ee25b5baa9e45bac3d8964965a13b46283ca91620e534cd77bf20d9785acfd7",
    ('TaintCheck', 'zchaff'): "8b3cc771a9aaa8a9c6c7f7b2ac81360cde6014d26b02e9c8bc313672fe65db0d",
    ('TaintCheckDetailed', 'zchaff'): "4075ea770349195daff6b92a6fb5852402453a91b4732a3e3ea2d817a8885adc",
}


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


def replay_digest(trace_path: str, lifeguard: str) -> str:
    """Replay ``trace_path`` under ``lifeguard`` and hash everything it produced.

    ``replay_trace`` builds its pipeline inside its chunk loop; wrapping
    ``build_pipeline`` keeps hold of the accelerator, whose internal
    counters and state the result does not carry.
    """
    build_pipeline = replay_module.build_pipeline
    built = []

    def recording_build_pipeline(lifeguard_obj, config=None):
        accelerator, dispatcher = build_pipeline(lifeguard_obj, config)
        built.append((lifeguard_obj, accelerator))
        return accelerator, dispatcher

    with mock.patch.object(replay_module, "build_pipeline", recording_build_pipeline):
        result = replay_module.replay_trace(trace_path, lifeguard)
    [(lifeguard_obj, accelerator)] = built

    def stats_of(component):
        return None if component is None else stable(component.stats)

    state = (
        result.records,
        stable(result.dispatch),
        stable(result.accelerator),
        stats_of(accelerator.it),
        stats_of(accelerator.idempotent_filter),
        stats_of(accelerator.mtlb),
        stable(lifeguard_obj.mapper_stats()),
        accelerator.state_signature(),
        result.dispatch.lifeguard_cycles,
        stable(result.reports),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Each workload captured once at :data:`SCALE`, by name."""
    directory = tmp_path_factory.mktemp("replay_golden")
    paths = {}
    for workload in WORKLOADS:
        paths[workload] = str(directory / f"{workload}.lbatrace")
        capture_trace(workload, paths[workload], scale=SCALE)
    return paths


def test_every_workload_and_lifeguard_is_pinned():
    assert set(GOLDEN) == {(lg, wl) for lg in LIFEGUARDS for wl in WORKLOADS}
    assert len(GOLDEN) == 80


@pytest.mark.parametrize("lifeguard,workload", sorted(GOLDEN), ids="-".join)
def test_replay_matches_golden_digest(traces, lifeguard, workload):
    assert replay_digest(traces[workload], lifeguard) == GOLDEN[lifeguard, workload]


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    with tempfile.TemporaryDirectory() as directory:
        print("GOLDEN = {")
        for workload in WORKLOADS:
            path = os.path.join(directory, f"{workload}.lbatrace")
            capture_trace(workload, path, scale=SCALE)
            for lifeguard in LIFEGUARDS:
                print(f"    {(lifeguard, workload)!r}: \"{replay_digest(path, lifeguard)}\",")
        print("}")
