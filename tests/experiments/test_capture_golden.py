"""Golden digests of the captured record stream and of the trace bytes.

The perfbench reference, the conformance matrix and the fuzz oracle all
take their records from the same ISA interpreter, so none of them would
notice an interpreter change that alters a record: every side of their
comparisons would move together.  These digests pin the stream itself.

* ``RECORD_STREAMS``: the sha256 of the :func:`iter_machine_records`
  stream of every workload at scale 0.5.  Each record is hashed field by
  field with its event type as its ordinal, so the digest does not depend
  on the codec.
* ``TRACE_FILES``: the sha256 of the ``.lbatrace`` file
  :func:`capture_trace` writes, uncompressed so that the digest does not
  depend on the host's zlib build.

To print fresh digests after an intentional change to the records or the
trace format::

    PYTHONPATH=src python tests/experiments/test_capture_golden.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.events import EventType
from repro.experiments.harness import capture_trace
from repro.lba.capture import iter_machine_records
from repro.workloads.base import get_workload, workload_names

SCALE = 0.5

RECORD_STREAMS = {
    "bzip2": "2fbcfd4bff4f400ff362fefc58fadf868de21cd74093769829252d3a1b763f5a",
    "crafty": "0bead4839a0619b32690fee88a70b7b03a29d11538c345ad1ba1a9544308a678",
    "eon": "bcff40b6422e5f4076190feba1380270fdcab8dfe17bf5fc028cc4a225a57fab",
    "gap": "72fde229718b34bcd0f878c737bef8471f388cff9b5d558da5b50a90d312200d",
    "gcc": "4fb359ef663777077efb235c0f50006cecfefa444ea7c55cdc0d1ba0167400ef",
    "gzip": "0382aa7461f50ee18c28803186079d36acadc2769cec80f310a6580ca61ba761",
    "mcf": "f4882ff50f4dc5a8b0b82a64cc051c0196793faa944b67d7ca532fc73be2bca7",
    "parser": "a03e7aa86bf2943f834078256e727546ef9c10994bae7f1368524a77640a145c",
    "twolf": "e3eb888593ead40a0c5ffe673fe5a2f99a3eed5fe8815fd57d0f3b2b95bc2f34",
    "vortex": "b4f7496026111f1e5323a6911d8d4c55720d552e249feb0a48aca40d2a6e480f",
    "vpr": "2273227242db77b080ca3c59350f5692e7a5ef10407e91c5429cfd516f2b25ab",
    "blast": "e0137c2753ca7cc21bfd0cd4d80716b61ee12ac663501a5460cca5c7a8959312",
    "pbzip2": "8467c585c82e48e8b4326e02c9787f4df941d30406f96653e020bccbf40f52aa",
    "pbunzip2": "53792ff51c94dc156bf9180c8e3293bb79d43457b5764826590a27d3c341a1af",
    "water_nq": "87929f61e372d7fe571d643c576630af52a2b930237a7f5e8dcd85c5367b711b",
    "zchaff": "7814d19ef032b5819d88ed439586ac5d9d366656ac716aae82d051d95053afed",
}

TRACE_FILES = {
    "mcf": "0709d19480f4ba0135e2893bb2973884f91326271afa110040c819c834e96097",
    "pbzip2": "67819602aea39854b7f1c6b028209f7dbb65cec2abdaf33d0465e0a1fb0e9288",
}


def record_stream_digest(program: str) -> str:
    digest = hashlib.sha256()
    machine = get_workload(program, scale=SCALE).build_machine()
    for record in iter_machine_records(machine):
        row = tuple(
            value.ordinal if isinstance(value, EventType) else value for value in record
        )
        digest.update(repr((type(record).__name__,) + row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def trace_file_digest(program: str, path) -> str:
    capture_trace(program, path, scale=SCALE, compress=False)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_every_workload_has_a_pinned_stream():
    assert set(RECORD_STREAMS) == set(workload_names() + workload_names(multithreaded=True))


@pytest.mark.parametrize("program", sorted(RECORD_STREAMS))
def test_record_stream_matches_golden_digest(program):
    assert record_stream_digest(program) == RECORD_STREAMS[program]


@pytest.mark.parametrize("program", sorted(TRACE_FILES))
def test_trace_bytes_match_golden_digest(program, tmp_path):
    path = tmp_path / f"{program}.lbatrace"
    assert trace_file_digest(program, path) == TRACE_FILES[program]


if __name__ == "__main__":  # pragma: no cover - digest refresh helper
    import tempfile
    from pathlib import Path

    for name in RECORD_STREAMS:
        print(f'    "{name}": "{record_stream_digest(name)}",')
    with tempfile.TemporaryDirectory() as scratch:
        for name in TRACE_FILES:
            print(f'    "{name}": "{trace_file_digest(name, Path(scratch) / name)}",')
