"""Fixtures shared across the tier-1 suite."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest


@pytest.fixture
def kill_and_reap():
    """SIGKILL one spawned worker and wait until it is reaped.

    Reaping closes the child's pipe end, so the parent's next ``send`` or
    ``recv`` on that pipe sees a dead peer deterministically.
    """
    def kill(pid: int) -> None:
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while any(child.pid == pid for child in multiprocessing.active_children()):
            assert time.monotonic() < deadline, f"worker {pid} survived SIGKILL"
            time.sleep(0.01)

    return kill
