"""Every process the benchmark starts ends before the benchmark does.

:func:`guard` makes the benchmark process a child subreaper (Linux),
so a process orphaned by the death of its parent, such as a server's
worker, comes back to the benchmark rather than to init. It also maps
SIGTERM and SIGHUP to ``SystemExit`` so that ``finally`` blocks run.
:func:`end_all` then stops the multiprocessing resource tracker,
kills every descendant that is still there and waits for each to be
gone.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import Iterable, List, Set

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

try:
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):  # not Linux
    _prctl = None


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def guard() -> None:
    """Call once, first thing in the benchmark process."""
    if _prctl is not None:
        _prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _on_signal)


def die_with_parent() -> None:
    """``preexec_fn`` for a child: SIGTERM it when the benchmark dies."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, int(signal.SIGTERM), 0, 0, 0)


def _stat(pid: int):
    """``(state, ppid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(b")") + 2:].split()
    return fields[0].decode("ascii"), int(fields[1])


def descendants(root: int) -> List[int]:
    """Every live process below ``root``, parents before children."""
    children = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            found = _stat(int(entry))
            if found is not None:
                children.setdefault(found[1], []).append(int(entry))
    out, frontier = [], [root]
    while frontier:
        nxt = []
        for pid in frontier:
            nxt.extend(children.get(pid, ()))
        out.extend(nxt)
        frontier = nxt
    return out


def _running(pid: int) -> bool:
    """True until ``pid`` is gone; a zombie of ours is reaped here."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return False
    except ChildProcessError:
        pass
    found = _stat(pid)
    return found is not None and found[0] != "Z"


def end(pids: Iterable[int], timeout: float = 30.0) -> None:
    """SIGKILL each of ``pids`` still there and wait until all are gone."""
    left: Set[int] = set(pids)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    deadline = time.monotonic() + timeout
    while left:
        left = {pid for pid in left if _running(pid)}
        if left and time.monotonic() > deadline:
            raise RuntimeError(f"processes {sorted(left)} would not end")
        if left:
            time.sleep(0.01)


def end_all() -> None:
    """End every descendant of this process, the resource tracker too."""
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    if not os.path.isdir("/proc"):
        return
    for _ in range(5):  # a dying process may still have forked
        rest = descendants(os.getpid())
        if not rest:
            break
        end(rest)
    while True:  # reap what the subreaper inherited
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
