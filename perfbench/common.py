"""Statistics, run fingerprints and record comparison for the benchmark.

Imports nothing from ``repro``: the launcher uses it before the program
is known to be importable.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import shutil
import signal
import statistics
import time
from pathlib import Path


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    ten samples beyond it.  With ten samples or fewer no such
    percentile exists and the maximum is reported as percentile 100."""
    n = len(values)
    if n == 0:
        return 100.0, 0.0
    ordered = sorted(values)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- host speed ----------------------------------------------------------------

#: seconds between two speed probes
PROBE_PERIOD_S = 0.02
#: iterations of one probe
PROBE_ITERS = 2_000
#: fewest probes a time is scaled by (a shorter interval is widened)
PROBE_MIN = 3
#: a probe's duration on the reference host: host times are reported as
#: they would read on a host that runs the probe this fast (about the
#: fastest the 2-CPU machine the benchmark was built on ran it)
PROBE_REF_S = 0.0002


def probe_seconds() -> float:
    """CPU seconds of the calling thread for a fixed piece of
    pure-Python work: dictionary stores and integer arithmetic, the
    interpreter's kind of work."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        table[i & 255] = acc
        acc += i * 3 % 7
        if acc > 1_000_000:
            acc -= 1_000_000
    return time.thread_time() - t0


class HostSpeed:
    """Scales host time to a reference host.

    A shared host changes speed by half and more, for tenths of a second
    to tens of seconds at a time, without taking the CPU away (process
    CPU time tracks wall time), and each CPU on its own.  So the same
    work reads up to twice as slow in a slow spell.  While running, a
    timer signal makes the main thread time a fixed probe every
    ``PROBE_PERIOD_S`` (about 2% of the time).  A probe's speed is
    ``PROBE_REF_S`` over its duration, and :meth:`scaled` turns an
    interval's duration into reference-host time by the mean speed of
    the probes inside it (they are evenly spaced in time, so this is the
    work the reference host would have done in it).  The probe is the
    benchmark's own code, so a faster program still reads faster.
    The probe's CPU time is the thread's own, so the advisor's service
    workers holding the interpreter lock do not count as a slow host.
    """

    def __init__(self) -> None:
        #: ``time.perf_counter()`` at the end of each probe
        self.at: list[float] = []
        #: each probe's speed relative to the reference host
        self.speeds: list[float] = []

    def _probe(self, signum, frame) -> None:
        self.speeds.append(PROBE_REF_S / max(probe_seconds(), 1e-9))
        self.at.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from host time to reference-host time for the interval
        ``[t0, t1]`` of ``time.perf_counter()``; an interval holding
        fewer than ``PROBE_MIN`` probes is widened to the nearest ones."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        while hi - lo < PROBE_MIN and (lo > 0 or hi < len(self.at)):
            lo = max(0, lo - 1)
            hi = min(len(self.at), hi + 1)
        if lo == hi:
            return 1.0
        return statistics.fmean(self.speeds[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.scale(t0, t1)


# -- run fingerprint -----------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """Content hash of the program's sources (``src/``): names the code
    under test where no git metadata exists, as in an exported tree."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(src)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path, seed: int, cores: list[str]) -> dict:
    """Identity of one result record.  ``commit``/``source`` name the
    code under test; every other field must match for two records to
    be comparable."""
    import numpy

    return {
        "seed": seed,
        "commit": _git_commit(root),
        "source": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": any(
            shutil.which(c)
            for c in (os.environ.get("CC"), "cc", "gcc", "clang") if c
        ),
        "cores": sorted(cores),
    }


#: fingerprint fields allowed to differ between compared records
CODE_FIELDS = ("commit", "source")


def comparable(a: dict, b: dict) -> list[str]:
    """Fingerprint fields (other than the code's identity) on which two
    records differ; empty when they may be compared."""
    keys = sorted((set(a) | set(b)) - set(CODE_FIELDS))
    return [k for k in keys if a.get(k) != b.get(k)]
