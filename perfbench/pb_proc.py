"""Resource accounting and process lifetime for the engine's process tree.

psutil is not available, so everything is read from /proc. The tree is the
benchmark process and all its descendants (Ray's gcs and raylet are children
of this process, workers are children of the raylet). A background thread
samples it every 100 ms: CPU seconds are the growth of each process's
utime+stime since the start (or since it appeared), up to the last sample
that saw it, so a worker that exits mid-interval keeps what it used.
(Summing cutime instead lost the CPU of Ray workers that exited during the
interval: a traced build round read 8.6 s against 21 s untraced.) Peak RSS is
the largest sum of resident pages over the tree at one sample.
"""

from __future__ import annotations

import os
import signal
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")
SAMPLE_S = 0.1  # sampler period


class DeadlineExceeded(Exception):
    """An operation did not finish within its deadline (executor wedge)."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    # comm may hold spaces or parens: split after the LAST ')'; index 0 is
    # then field 3 (state) of proc(5)
    return data.rsplit(")", 1)[1].split()


def descendants(root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                kids.setdefault(int(fields[1]), []).append(int(name))
    out, stack = [], [root]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def tree() -> list[int]:
    return [os.getpid()] + descendants(os.getpid())


def cpu_ticks(pids: list[int]) -> dict[int, int]:
    """utime+stime of each live pid, in clock ticks."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = int(fields[11]) + int(fields[12])
    return out


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def process_age_s() -> float:
    """Seconds since this process started (proc(5) starttime vs uptime)."""
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - int(_stat_fields(os.getpid())[19]) / CLK_TCK


class Meter:
    """CPU seconds and peak summed RSS of the process tree between start()
    and stop(); the sampler runs every SAMPLE_S seconds."""

    def __init__(self):
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._first: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self.peak_rss = 0
        self.cpu_s = 0.0

    def _take(self, baseline: bool = False) -> None:
        """Sample the tree; with ``baseline`` the current CPU of every live
        process is the zero point, later newcomers start from zero."""
        pids = tree()
        for pid, ticks in cpu_ticks(pids).items():
            self._first.setdefault(pid, ticks if baseline else 0)
            self._last[pid] = ticks
        self.peak_rss = max(self.peak_rss, rss_bytes(pids))

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            self._take()

    def start(self) -> "Meter":
        self._first.clear()
        self._last.clear()
        self.peak_rss = 0
        self._take(baseline=True)
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "Meter":
        self._stop.set()
        self._thread.join()
        self._take()
        self.cpu_s = sum(t - self._first[p] for p, t in self._last.items()) / CLK_TCK
        return self


def call_with_deadline(fn, seconds: float):
    """Run ``fn()`` in a helper thread; raise DeadlineExceeded if it has not
    returned after ``seconds``. The thread cannot be cancelled, so a caller
    that sees DeadlineExceeded must end the process (kill_tree + os._exit)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, seconds))
    if t.is_alive():
        raise DeadlineExceeded(f"no result after {seconds:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def kill_tree(known: list[int] = (), timeout: float = 15.0) -> list[int]:
    """SIGKILL every descendant of this process, and every pid of ``known``
    (descendants listed earlier, which may have been re-parented to init
    since), and wait until each is gone. Returns the pids still present
    after ``timeout`` (normally none)."""
    me = os.getpid()
    pending = set(descendants(me)) | {p for p in known if _stat_fields(p) is not None}
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:  # reap our own children; others are reaped by init
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    pending.discard(pid)
                    continue
            except ChildProcessError:
                pass
            fields = _stat_fields(pid)
            if fields is None or fields[0] == "Z" and int(fields[1]) != me:
                pending.discard(pid)
        if pending:
            time.sleep(0.05)
    return sorted(pending)
