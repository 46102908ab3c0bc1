"""Peak resident memory of a process tree, sampled from ``/proc``.

Pool workers and daemons are separate processes, so no single rusage
call sees the whole workload.  :class:`TreePeak` samples the tree in a
thread every :data:`INTERVAL_S`: it keeps every process's ``VmHWM`` (its
own peak, which only grows) and reports the sum, so a process's peak
counts even if it came between two samples.

A sample lists ``/proc`` but reads the parent of a process only the
first time it sees its pid, and reads ``VmHWM`` only for processes in
the tree, so its cost barely grows with unrelated processes on the host.
"""

from __future__ import annotations

import os
import threading

INTERVAL_S = 0.05


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Field 4 (ppid) follows the parenthesized command name.
    return int(stat[stat.rindex(b")") + 2 :].split()[1])


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class TreePeak:
    """Sum of per-process peak RSS over ``root`` and its descendants."""

    def __init__(self, root: int) -> None:
        self.root = root
        self._tree = {root}
        self._seen: set[int] = set()
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        pids = {int(entry) for entry in os.listdir("/proc") if entry.isdigit()}
        # A pid present in the last listing is the same process: its
        # parent was read then.  A new process may be the child of
        # another new one, so add until the tree stops growing.
        parents = {pid: _ppid(pid) for pid in pids - self._seen}
        self._seen = pids
        self._tree &= pids
        grew = True
        while grew:
            grew = False
            for pid, ppid in parents.items():
                if ppid in self._tree and pid not in self._tree:
                    self._tree.add(pid)
                    grew = True
        for pid in self._tree:
            hwm = _hwm_kb(pid)
            if hwm is not None and hwm > self._peaks.get(pid, 0):
                self._peaks[pid] = hwm

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; return the tree's peak in MiB."""
        self._stop.set()
        self._thread.join()
        return sum(self._peaks.values()) / 1024.0
