"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds and minutes as other tenants come and go. While a
repetition runs, an interval timer interrupts it every INTERVAL_S and times
a fixed loop of the benchmark's own code, never cascadekit's. A measured
time, less the time spent in the loop, is divided by the mean loop time
and multiplied by REFERENCE_S, which gives seconds at the reference host
speed and cancels most of the drift, including drift inside a repetition.

The loop chases pointers through a 256-entry list and dict. Its data fits
in the first-level cache, so what cascadekit left in the caches barely
moves it, and it allocates no container, so it never starts a garbage
collection of cascadekit's heap. A change to cascadekit therefore moves the
scaled time in full.
"""

import signal
import time

# Mean loop time inside a repetition on the reference host (2-core x86_64
# VM, Python 3.11), so that scaled times stay close to seconds there.
REFERENCE_S = 0.00085
INTERVAL_S = 0.05
MIN_SAMPLES = 5  # fewer samples than this in a repetition: time the loop on its own
_SIZE = 256
_STEPS = 12000
_OFFSET = 100_000  # keys outside the small-int cache, like real dict keys


class Sampler:
    """The fixed loop, and an interval timer that runs it during a measurement."""

    def __init__(self):
        # x -> 5x + 1 (mod 256) visits every entry in one cycle.
        self._next = [(5 * i + 1) % _SIZE + _OFFSET for i in range(_SIZE)]
        self._index = {i + _OFFSET: i for i in range(_SIZE)}
        self.samples = []
        self._previous = None

    def once(self) -> float:
        """Seconds for one pass of the loop."""
        step, index = self._next, self._index
        start = time.perf_counter()
        x = 0
        for _ in range(_STEPS):
            x = index[step[x]]
        return time.perf_counter() - start

    def measure(self, count: int = 25) -> list:
        """Timings of back-to-back passes, for measurements too short to sample."""
        return [self.once() for _ in range(count)]

    def _on_alarm(self, signum, frame):
        self.samples.append(self.once())

    def start(self) -> None:
        """Time the loop every INTERVAL_S of wall time until stop()."""
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list:
        """Stop the timer and return the loop timings taken since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.samples


def scaled(seconds: float, loop_s: float) -> float:
    """A measured time in seconds at the reference host speed, given the loop time."""
    return seconds * REFERENCE_S / loop_s
