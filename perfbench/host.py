"""Host fingerprint, drift probe, interpreter start-up timing, and the
process's peak resident memory.

The fingerprint and the probe are stored beside every run, as
diagnostics; no metric is derived from them.  The probe is a fixed
kernel of about 0.45 s independent of the program under test: a
pure-Python loop over a dict, then sparse matrix-vector products.  When
a set of runs reads slower on the wall clock and the probe is slower by
the same share, the host drifted, not the program.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
import time
from typing import Dict, Mapping, Tuple

import numpy as np
import scipy
import scipy.sparse

PROBE_LOOP = 1_600_000
PROBE_SIZE = 200_000
PROBE_PRODUCTS = 90

#: Run in a fresh interpreter to time every import the workloads need
#: (the import part of ``setup_s``); prints raw and clocked seconds.
_IMPORT_SNIPPET = (
    "import time; begun = time.perf_counter()\n"
    "import sys; sys.path[:0] = ['src', '.']\n"
    "from perfbench.clock import SpeedClock\n"
    "clock = SpeedClock(); clock.start(since=begun)\n"
    "import perfbench.workloads\n"
    "clock.stop(); print(clock.raw, clock.scaled)"
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: str) -> Dict[str, object]:
    """nproc, CPU model, interpreter and library versions, git sha."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
    }


class DriftProbe:
    """The drift probe; its sparse matrix is built once, untimed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        nnz = 4 * PROBE_SIZE
        self.matrix = scipy.sparse.csr_matrix(
            (
                rng.random(nnz),
                (rng.integers(0, PROBE_SIZE, nnz), rng.integers(0, PROBE_SIZE, nnz)),
            ),
            shape=(PROBE_SIZE, PROBE_SIZE),
        )
        self.vector = np.ones(PROBE_SIZE)

    def __call__(self) -> Tuple[float, float]:
        """Seconds taken by the probe's Python loop and sparse products."""
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(PROBE_LOOP):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 4095] = acc
        middle = time.perf_counter()
        for _ in range(PROBE_PRODUCTS):
            self.matrix @ self.vector
        return middle - start, time.perf_counter() - middle


def import_seconds(root: str, env: Mapping[str, str]) -> float:
    """Start-up and import time of a fresh interpreter that imports the
    workloads.  The imports are timed in the child on a
    :class:`~perfbench.clock.SpeedClock`; the rest (process and bare
    interpreter start-up, a few percent of the total) is wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SNIPPET],
        cwd=root,
        env=dict(env),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - start
    raw, clocked = (float(x) for x in proc.stdout.split())
    return wall - raw + clocked


def reset_peak_rss() -> None:
    """Reset this process's peak resident memory to its current resident
    memory (Linux: ``/proc/self/clear_refs``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident memory since the last
    :func:`reset_peak_rss`, in MB (``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        match = re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("no VmHWM in /proc/self/status")
    return int(match.group(1)) / 1024.0
