"""Bounded waits on the child processes the benchmark starts."""

from __future__ import annotations

import select
import subprocess
from typing import Optional


def read_line(process: subprocess.Popen, timeout: float) -> str:
    """The child's next line of output, or ``""`` if none starts within ``timeout`` seconds."""
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    return process.stdout.readline() if ready else ""


def finish(process: subprocess.Popen, timeout: float) -> Optional[int]:
    """Read the child's remaining output and reap it; its exit code.

    A child still running after ``timeout`` seconds is killed and reaped,
    and the result is ``None``.
    """
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None
    return process.returncode
