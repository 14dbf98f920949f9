"""Host-speed witness: times in seconds at the host's uncontended speed.

On the shared 2-vCPU host this benchmark was built on, other tenants
slow an interpreter-bound process by 1.1-1.8x, in stretches of seconds
to minutes. A raw wall time then tells more about the neighbours than
about vlcasim: ten runs of the same batch spread by 20-40% (quartile
distance over median). So every timed interval is bracketed by two runs
of a fixed witness kernel, the kernel also runs every Sampler.PERIOD_S
inside long intervals, and the interval, less the witness time inside it,
is scaled by how much slower the witness ran than on an idle core of that
host:

    seconds = (measured - witness time inside) * REFERENCE_S
              / mean(witness times before, inside, after)

The witness is a small RK4 loop in plain Python, the same kind of work as
vlcasim's simulators, and it never calls vlcasim, so a change to the
program cannot change the witness. On another host the numbers are
scaled by that host's speed, consistently for both sides of a comparison.
"""

import signal
import time

# witness time on an idle core of the host the bounds were set on
# (Intel Xeon vCPU at 2.0 GHz, Python 3.11)
REFERENCE_S = 0.0047


def witness() -> float:
    """Seconds the fixed kernel takes now (about 5 ms on an idle core)."""
    t0 = time.perf_counter()
    x = v = 0.0
    h = 1e-4
    for k in range(3000):
        f = 1.0 if k % 100 < 50 else -1.0
        for _ in range(2):
            a1 = f - 0.3 * v - 40.0 * x
            x2, v2 = x + 0.5 * h * v, v + 0.5 * h * a1
            a2 = f - 0.3 * v2 - 40.0 * x2
            x3, v3 = x + 0.5 * h * v2, v + 0.5 * h * a2
            a3 = f - 0.3 * v3 - 40.0 * x3
            x4, v4 = x + h * v3, v + h * a3
            a4 = f - 0.3 * v4 - 40.0 * x4
            x += h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return time.perf_counter() - t0


def at_reference(seconds: float, witnesses) -> float:
    """Scale a measured interval to the host's uncontended speed, given
    the witness times taken around and during it."""
    return seconds * REFERENCE_S * len(witnesses) / sum(witnesses)


class Sampler:
    """Runs the witness every PERIOD_S of wall time while active.

    SIGALRM interrupts the program between bytecodes, so a long run is
    sampled all along instead of only at its two ends. `take()` returns
    the witness times since the last call; the caller subtracts their sum
    from the run's wall time.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self._samples = []

    def _tick(self, signum, frame):
        self._samples.append(witness())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self):
        samples, self._samples = self._samples, []
        return samples
