"""Every process a benchmark run starts has ended before the run exits.

A run starts processes at three depths: set-up interpreters and the
service process (``subprocess``), their worker pools, and the
``multiprocessing`` resource tracker that each interpreter owning a
shared-memory segment spawns.  The tracker is not a child anyone waits
for: it exits on its own once its owner has exited, a moment *after*
it.  So the run makes itself the subreaper of its descendants -- an
orphan is re-parented to the run instead of to init -- stops its own
tracker, and before it exits waits for every child it has, adopted
orphans included, killing what outlives a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

#: ``prctl`` option that re-parents orphaned descendants to the caller (Linux).
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of this process's orphaned descendants."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop this interpreter's resource tracker, if it started one, and wait for it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except (ChildProcessError, OSError):
            pass


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces and parentheses: split after the last ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _collect(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def reap(grace: float = 10.0) -> List[int]:
    """Wait for every child to end; SIGKILL those alive after ``grace`` seconds.

    Returns the pids that had to be killed.
    """
    stop_resource_tracker()
    deadline = time.monotonic() + grace
    while True:
        pids = children()
        if not pids:
            return []
        _collect(pids)
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    killed = children()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in killed:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed
