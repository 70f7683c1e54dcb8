"""The benchmark's own load generator.

One thread and one connection drive an open loop; the closed loop uses
two (one thread per connection).  The program's ``run_loadgen`` is not
used: its thread pool contends for the GIL with its own timing code and
inflated p99 to 77-400 ms where this single-thread schedule sees 2-25 ms
against the same server, and the benchmark must measure the program,
not its generator.

``send(i)`` performs request ``i`` and returns True when the response
was correct; the generator only does the clock work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: a round is invalid when the generator itself was later than this share
#: of the inter-arrival gap on more than LATE_SHARE of its requests.
LATE_GAP_FRAC = 0.10
LATE_SHARE = 0.01

_SPIN_S = 0.0015


@dataclass
class Round:
    """One open-loop round: per-request latency from the *scheduled* send
    time, how late the generator itself was, and wrong/failed requests."""

    latencies_ms: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    failed: int = 0
    gap_ms: float = 0.0

    @property
    def valid(self) -> bool:
        late = sum(1 for lag in self.lags_ms if lag > LATE_GAP_FRAC * self.gap_ms)
        return late <= LATE_SHARE * len(self.lags_ms)


def _sleep_until(due: float) -> None:
    # Sleep most of the wait, spin the last fraction of a millisecond:
    # time.sleep alone overshoots by more than 10 % of a 3 ms gap.
    while True:
        remaining = due - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > _SPIN_S:
            time.sleep(remaining - _SPIN_S)


def open_loop(send, n: int, rate: float, first: int = 0) -> Round:
    """Send requests ``first .. first+n-1`` on a fixed schedule of
    ``rate`` per second over one connection.

    Latency runs from the moment a request was *due*, so a stall delays
    (and is charged to) every request scheduled behind it.  Lag is the
    generator's own lateness: how long after it could have sent — the due
    time, or the previous response if that came later — it did send.
    """
    gap = 1.0 / rate
    out = Round(gap_ms=gap * 1000.0)
    t0 = time.perf_counter() + gap
    free_at = t0
    for i in range(n):
        due = t0 + i * gap
        _sleep_until(due)
        sent = time.perf_counter()
        out.lags_ms.append((sent - max(due, free_at)) * 1000.0)
        try:
            ok = send(first + i)
        except (OSError, RuntimeError, ValueError):
            ok = False
        free_at = time.perf_counter()
        out.latencies_ms.append((free_at - due) * 1000.0)
        if not ok:
            out.failed += 1
    return out


def open_loop_checked(send, n: int, rate: float, first: int = 0) -> tuple[Round, int]:
    """:func:`open_loop`, re-run once when the generator was late.
    Returns the round to keep and how many rounds were thrown away."""
    rnd = open_loop(send, n, rate, first)
    if rnd.valid:
        return rnd, 0
    return open_loop(send, n, rate, first), 1


def closed_loop(senders, seconds: float) -> tuple[list, int, int]:
    """Each sender (its own connection) issues requests back to back for
    ``seconds``.  Returns completions per whole 1-s window, the number of
    requests attempted and the number that failed."""
    stamps: list[float] = []
    failed = [0]
    lock = threading.Lock()
    t0 = time.perf_counter()
    t_end = t0 + seconds

    def worker(send) -> None:
        i = 0
        while time.perf_counter() < t_end:
            try:
                ok = send(i)
            except (OSError, RuntimeError, ValueError):
                ok = False
            now = time.perf_counter()
            with lock:
                stamps.append(now)
                if not ok:
                    failed[0] += 1
            i += 1

    threads = [threading.Thread(target=worker, args=(s,)) for s in senders]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    windows = [0] * max(1, int(seconds))
    for ts in stamps:
        w = int(ts - t0)
        if w < len(windows):
            windows[w] += 1
    return windows, len(stamps), failed[0]
