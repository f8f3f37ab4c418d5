"""Closed-loop measurement shared by the workloads.

Holds the per-instance time limit, the percentile rule, the host speed
probe, set-up timing, the pass loop and the environment stamp.  Nothing here imports domchrom at
module level: :func:`import_domchrom` loads the package fresh from the
checkout's ``src/`` and the workloads receive the module object.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10

#: Statuses of an attempted instance; everything but "ok" is a failure.
#: "timeout" was aborted by the time limit, "late" returned after it (the
#: compiled kernel cannot be interrupted), "raised" threw, "wrong" failed
#: the correctness check.
OK = "ok"
FAILED_STATUSES = ("wrong", "raised", "timeout", "late")


class BenchError(Exception):
    """The benchmark cannot run or cannot produce a valid result."""


class InstanceTimeout(Exception):
    """Raised inside an instance when its time limit expires."""


# -- percentiles -----------------------------------------------------------------


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the
    nearest-rank q-th percentile."""
    n = MIN_BEYOND + 1
    while n - math.ceil(q / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile.  Refuses (ValueError) when fewer than
    MIN_BEYOND samples lie above it, so a high percentile is never read off
    a handful of points."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {len(ordered) - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples_for(q)} samples)"
        )
    return ordered[rank - 1]


# -- per-instance time limit ----------------------------------------------------------


class _Alarm:
    """SIGALRM-driven limit.  Raises InstanceTimeout in the main thread at
    the next bytecode boundary after expiry; a Python kernel is therefore
    interrupted, a compiled call only once it returns."""

    armed = False

    def handler(self, signum, frame):
        if self.armed:
            self.armed = False
            raise InstanceTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


_ALARM = _Alarm()


def call_with_limit(fn: Callable[[], Any], limit_s: float) -> tuple[str, Any, float]:
    """Run ``fn()`` under the time limit; return ``(status, result, seconds)``.

    Any other exception is reported as ``"raised"`` with the exception as
    the result; a call that returns after the limit is ``"late"``.
    """
    previous = signal.signal(signal.SIGALRM, _ALARM.handler)
    t0 = time.perf_counter()
    try:
        try:
            _ALARM.arm(limit_s)
            result = fn()
        finally:
            _ALARM.disarm()
        status = OK
    except InstanceTimeout:
        status, result = "timeout", None
    except Exception as exc:  # noqa: BLE001 - any error is a failed instance
        status, result = "raised", exc
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    if status == OK and seconds > limit_s:
        status = "late"
    return status, result, seconds


# -- host speed ---------------------------------------------------------------------

#: Probe time that defines the reference speed.  Reported times are scaled
#: to it: a time of 1 s means 1 s on a host whose probe takes this long.
PROBE_REF_S = 0.003

_PROBE_MASKS = tuple((v * 2654435761) & 0xFFFFFFFF for v in range(800))


def speed_probe() -> float:
    """Seconds the interpreter currently needs to split a fixed set of
    32-bit masks into bit indices, best of three.

    Shared hosts change speed by up to 2x within seconds, so the benchmark
    probes between instances and scales each by the probes around it.  The
    probe is small integer bit work with small allocations, like the
    package's own inner loops, and its data stays in cache.  On a shared
    2-CPU VM it tracked the workloads' slowdowns more closely than a probe
    that scattered reads over a few megabytes: the spread of 30 s medians
    fell from 4.6% to 1.2% on ``search`` and from 8.9% to 5.4% on ``sweep``.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for m in _PROBE_MASKS:
            out = []
            while m:
                out.append((m & -m).bit_length() - 1)
                m &= m - 1
            tuple(out)
        best = min(best, time.perf_counter() - t0)
    return best


#: Measured time after which the loop probes the host speed again.
PROBE_EVERY_S = 0.1


def speed_factors(probes: list[float]) -> list[float]:
    """Scale factor of each stretch between consecutive probes."""
    return [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


# -- the closed loop ---------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One unit of work: a solve, an audit row or a sweep.

    ``ref_key`` names the pinned reference answer, if there is one.
    """

    name: str
    payload: Any
    n: int
    m: int
    ref_key: str | None = None


@dataclass
class Sample:
    pass_index: int
    instance: Instance
    status: str
    seconds: float
    answer: Any
    segment: int  # index of the stretch between speed probes it ran in
    reason: str | None = None
    facts: dict = field(default_factory=dict)


def run_passes(
    passes: list[list[Instance]],
    solve: Callable[[Instance], Any],
    limit_s: float,
    on_instance: Callable[[Sample], None],
    *,
    seconds: float,
    min_samples: int = 0,
    pass_count: int | None = None,
    max_seconds: float = 150.0,
) -> list[float]:
    """Closed loop: each instance starts when the previous one returns.

    Runs whole passes (pass ``i`` is ``passes[i % len(passes)]``) until
    ``seconds`` of instance time have been measured and ``min_samples``
    instances attempted, or exactly ``pass_count`` passes when that is
    given.  ``max_seconds`` of real time stop a loop that cannot reach its
    sample count.  ``on_instance`` receives every sample off the clock.

    Returns the speed probes: one before the first instance, then one
    whenever ``PROBE_EVERY_S`` of instance time has passed since the last,
    and one at the end.  ``Sample.segment`` indexes the stretch between
    two probes in which the instance ran.
    """
    probes = [speed_probe()]
    measured = since_probe = 0.0
    attempted = 0
    start = time.perf_counter()
    i = 0
    while True:
        if pass_count is not None:
            if i >= pass_count:
                break
        elif measured >= seconds and attempted >= min_samples:
            break
        elif time.perf_counter() - start >= max_seconds:
            break
        for inst in passes[i % len(passes)]:
            status, answer, dt = call_with_limit(lambda inst=inst: solve(inst), limit_s)
            sample = Sample(i, inst, status, dt, answer, len(probes) - 1)
            if status == "raised":
                sample.reason = f"{type(answer).__name__}: {answer}"
            on_instance(sample)
            attempted += 1
            measured += dt
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since_probe = 0.0
        i += 1
    if since_probe > 0 or len(probes) == 1:
        probes.append(speed_probe())
    return probes


# -- set-up --------------------------------------------------------------------------


def import_domchrom():
    """Import domchrom afresh from this checkout's ``src/``.

    Earlier imports of the package are dropped first, so repeated set-ups
    each pay the import and no wrapper installed by a traced run survives.
    """
    if not (SRC / "domchrom" / "__init__.py").is_file():
        raise BenchError(f"no domchrom package under {SRC}")
    for name in [m for m in sys.modules if m == "domchrom" or m.startswith("domchrom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dc = importlib.import_module("domchrom")
    if Path(dc.__file__).resolve().parent != (SRC / "domchrom").resolve():
        raise BenchError(f"imported domchrom from {dc.__file__}, not from {SRC}")
    return dc


def timed_setup(make: Callable[[], Any], repeats: int) -> tuple[Any, float, float]:
    """Run ``make()`` ``repeats`` times; return the last result and the
    median duration in seconds, raw and scaled to the reference speed."""
    durations = []
    probes = [speed_probe()]
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = make()
        durations.append(time.perf_counter() - t0)
        probes.append(speed_probe())
    scaled = [d * f for d, f in zip(durations, speed_factors(probes))]
    return result, statistics.median(durations), statistics.median(scaled)


# -- environment ---------------------------------------------------------------------


def git_commit(root: Path = ROOT) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git;
    ``None`` outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(dc, backend: str, seed: int) -> dict:
    return {
        "backend": backend,
        "available_backends": list(dc.available_backends()),
        "default_backend": dc.solver.DEFAULT_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
