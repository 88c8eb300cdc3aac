"""Process hygiene: everything the benchmark starts is reaped before it exits.

The benchmark makes itself a *child subreaper* (Linux ``prctl``), so any
process that loses its parent while the benchmark runs — a daemon's pool
worker, the ``multiprocessing`` resource tracker of a daemon that exited,
a grandchild of a CLI run — is re-parented to the benchmark instead of to
pid 1.  :func:`reap_all` then terminates and waits for every descendant,
and :func:`leftover_descendants` is the self-check: it lists every
descendant still present, live or zombie, straight from ``/proc``.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only); returns whether it worked."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _process_table() -> dict[int, tuple[int, str, str]]:
    """``pid -> (ppid, state, command)`` for every process in ``/proc``."""
    table: dict[int, tuple[int, str, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                data = handle.read().decode("utf-8", "replace")
        except OSError:  # exited between listdir and open
            continue
        # the command sits in parentheses and may itself contain spaces
        close = data.rfind(")")
        command = data[data.find("(") + 1 : close]
        fields = data[close + 2 :].split()
        table[int(entry)] = (int(fields[1]), fields[0], command)
    return table


def leftover_descendants(root: int | None = None) -> dict[int, str]:
    """Every descendant of ``root`` (default: this process), live or zombie.

    Returns ``pid -> "state command"``; an empty dict means the process
    tree below ``root`` is clean.
    """
    root = os.getpid() if root is None else root
    table = _process_table()
    children: dict[int, list[int]] = defaultdict(list)
    for pid, (ppid, _, _) in table.items():
        children[ppid].append(pid)
    found: dict[int, str] = {}
    stack = [root]
    while stack:
        for pid in children.get(stack.pop(), ()):
            _, state, command = table[pid]
            found[pid] = f"{state} {command}"
            stack.append(pid)
    return found


def reap_zombie_children() -> int:
    """``waitpid`` every exited direct child (adopted orphans included)."""
    reaped = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid == 0:
            return reaped
        reaped += 1


def _signal_all(pids, signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


def _resource_tracker():
    module = sys.modules.get("multiprocessing.resource_tracker")
    return None if module is None else module._resource_tracker


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, if started.

    An shm arena (``repro.utils.shm``) registers its segment with the
    tracker, which starts a helper process that would otherwise outlive the
    benchmark.  Stopping it closes its pipe and waits for it to exit; the
    arenas have already unlinked their segments by then.  The tracker only
    sees the pipe close once every forked process holding a copy is gone,
    so :func:`reap_all` ends the other descendants first.
    """
    tracker = _resource_tracker()
    if tracker is None:
        return
    try:
        tracker._stop()  # a no-op when it never started
    except ChildProcessError:  # already reaped as an exited child
        tracker._fd = tracker._pid = None


def _terminate(exclude: set[int], grace: float) -> None:
    """SIGTERM, then after ``grace`` SIGKILL, every descendant not excluded."""
    deadline = time.monotonic() + grace
    signalled = killed = False
    while True:
        reap_zombie_children()
        live = [pid for pid, what in leftover_descendants().items()
                if not what.startswith("Z") and pid not in exclude]
        if not live:
            return
        if not signalled:
            _signal_all(live, signal.SIGTERM)
            signalled = True
        elif time.monotonic() >= deadline:
            if killed:
                return
            _signal_all(live, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def reap_all(grace: float = 5.0) -> dict[int, str]:
    """Terminate and reap every descendant; returns the ones that remain.

    Live descendants get SIGTERM, then SIGKILL after ``grace`` seconds;
    zombies that are (or were adopted as) direct children are waited for.
    The resource tracker is stopped last, once nothing else holds its pipe.
    Call only once no pool of this process is still in use — the blanket
    ``waitpid`` would otherwise steal its workers' exit statuses.
    """
    tracker = _resource_tracker()
    tracker_pid = getattr(tracker, "_pid", None)
    _terminate({tracker_pid} if tracker_pid else set(), grace)
    stop_resource_tracker()
    _terminate(set(), grace)
    reap_zombie_children()
    return leftover_descendants()


def stop_process_group(process, grace: float = 10.0) -> int | None:
    """SIGTERM a session leader, wait up to ``grace``, then SIGKILL its group.

    ``process`` is a :class:`subprocess.Popen` started with
    ``start_new_session=True``, so its pid is also its process-group id and
    every helper it forked (pool workers, resource tracker) is in the
    group.  The group is killed even after a clean exit, so no helper
    survives the leader; the leader is reaped and its exit code returned.
    """
    pgid = process.pid
    if process.poll() is None:
        try:
            process.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass  # escalate to SIGKILL below
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        return process.wait(timeout=grace)
    except subprocess.TimeoutExpired:  # left for reap_all and the self-check
        return None
