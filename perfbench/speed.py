"""Host speed gauge: corrects operation times for the host's contention state.

On the shared 2-vCPU hosts this benchmark was built on, the same work runs
up to about 1.6x slower for stretches of seconds to minutes, whatever this
process does, so two 10 s runs of the same code can differ by that much.
A fixed pure-Python probe, timed between operations (at most every 100 ms),
tracks the host's speed.  Each time is scaled by ``REFERENCE_NS / probe``,
where ``probe`` is the latest probe before it: the result is the time the
operation would take on a host where the probe takes ``REFERENCE_NS``, the
probe's time on an uncontended host of that kind.  The probe runs no klbp
code, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter_ns

PROBE_LOOPS = 7000  # about 0.5 ms of interpreter work
PROBE_REPEATS = 3  # a probe is the fastest of these
PROBE_EVERY_NS = 100_000_000
REFERENCE_NS = 430_000  # probe time on an idle 2-vCPU Xeon host, Python 3.11


def _kernel() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def _timed_kernel() -> int:
    start = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - start


class SpeedGauge:
    def __init__(self):
        self.probes: list[int] = []
        self._last_at: int | None = None

    def current(self) -> int:
        """The latest probe time in ns, probing again when it is stale."""
        now = perf_counter_ns()
        if self._last_at is None or now - self._last_at >= PROBE_EVERY_NS:
            self.probes.append(min(_timed_kernel() for _ in range(PROBE_REPEATS)))
            self._last_at = perf_counter_ns()
        return self.probes[-1]


def at_reference(t: float, probe: float) -> float:
    """``t`` scaled to a host where the probe takes REFERENCE_NS."""
    return t * REFERENCE_NS / probe
