"""Host speed, so timings from a host whose speed drifts can be compared.

A shared host's speed can swing by up to 2x within minutes (seen on a
2-CPU x86 VM), and CPU time tracks wall time, so the swing is the host's
speed, not scheduling.  The benchmark times a fixed pure-Python kernel
just before each timed op and scales the op's time to a reference speed:
a same-run ratio that a change to the program cannot move, because the
kernel uses none of its code.

Set-up time is mostly process start and imports, which the in-process
kernel does not track, so set-up is scaled by a second reference: a fresh
interpreter that imports a fixed set of standard-library modules.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import Dict

#: ``host_speed_s()`` at the host speed that timed figures are scaled to
#: (about what it reads on a shared 2-CPU x86 VM).
HOST_REF_S = 0.0045
#: Loop iterations of one kernel timing (a few milliseconds).
HOST_ITERATIONS = 12000
#: Kernel timings per reading; the fastest is the reading.
HOST_SAMPLES = 3
#: ``process_speed_s()`` at the reference host speed.
PROCESS_REF_S = 0.16
#: What the reference process runs: standard-library imports only, so a
#: change to the program cannot move it.
REFERENCE_PROCESS = (
    "import argparse, asyncio, collections, dataclasses, decimal, email.parser,"
    " http.client, json, multiprocessing, random, statistics, struct,"
    " subprocess, unittest, xml.dom.minidom, zlib"
)
REFERENCE_PROCESS_TIMEOUT_S = 60


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        return self.value


def _host_kernel() -> int:
    """Fixed pure-Python work in the program's style: calls, attributes, dicts."""
    cells = [_Cell(i) for i in range(64)]
    table: Dict[int, int] = {}
    total = 0
    for i in range(HOST_ITERATIONS):
        total += cells[i & 63].bump(i)
        key = total & 1023
        table[key] = table.get(key, 0) + 1
    return total


def host_speed_s() -> float:
    """Fastest of ``HOST_SAMPLES`` timings of the kernel: the host's speed right now."""
    best = float("inf")
    for _ in range(HOST_SAMPLES):
        start = perf_counter()
        _host_kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, host_s: float) -> float:
    """``seconds`` as they would read at the reference host speed."""
    return seconds * HOST_REF_S / host_s


def process_speed_s() -> float:
    """Seconds to start the reference process and wait for it to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], check=True,
                   timeout=REFERENCE_PROCESS_TIMEOUT_S)
    return perf_counter() - start
