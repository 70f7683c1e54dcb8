"""Plumbing shared by the workloads: the program's environment, CLI
units with process-tree accounting, the server's life cycle, summary
statistics, host-speed samples and provenance.

Nothing here imports ``repro``: everything drives the program from
outside, through ``python -m repro`` subprocesses and ``/proc``.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: the reference problem every learn/serve workload uses (ROADMAP aim 1).
DATASET = ("carcinogenesis", "paper", 0)

UNIT_TIMEOUT_S = 120.0

#: One core for the program, one for the generator.  Left to the scheduler,
#: a server's two threads (event loop, executor) land on one core or on
#: both, and a whole instance then runs at 0.60 or at 0.85 ms per small
#: query; pinned, every instance measured 0.58-0.68 ms.  With one CPU the
#: three sets coincide and pinning changes nothing.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
GENERATOR_CPUS = frozenset({min(ALL_CPUS)})
PROGRAM_CPUS = frozenset({max(ALL_CPUS)})


# -- statistics --------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def summary(values) -> dict:
    """Level, median, quartiles and sample count — the shape every timing
    is reported in (one value is its own quartiles)."""
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"level": level(values), "median": med, "q1": q1, "q3": q3, "n": len(values)}


def level(values) -> float:
    """Mean of the samples without the highest tenth (at least one): it
    follows the share of slow stretches in a run the way a mean does, and
    one stalled round or unit (a round p50 of 53 ms among 0.6 ms ones
    happened) does not move it."""
    ordered = sorted(values)
    return statistics.fmean(ordered[: len(ordered) - max(1, len(ordered) // 10)] or ordered)


# -- the program's environment -------------------------------------------------------


def program_env(seed: int) -> dict:
    """Environment for every program subprocess.

    Every ``REPRO_*`` switch (tracing, kernels, wire, logging) is dropped
    so the defaults are what is measured; ``--seed`` becomes the
    interpreter's hash seed, the one input of a learning run that may vary
    without changing the problem (theories must not depend on it).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["REPRO_LOG_LEVEL"] = "error"
    return env


@contextlib.contextmanager
def scratch_dir():
    """A temp dir inside the checkout (``bench/out``), removed on exit."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- CLI units ---------------------------------------------------------------------


@dataclass
class Unit:
    """One program subprocess, start to exit, with its tree's resources."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str


#: Runs one unit from a process that is smaller than any program: a child's
#: ``ru_maxrss`` starts at what its parent held when it forked, and the
#: benchmark process (scipy, the host-speed table) holds more than the CLI.
_LAUNCHER = """
import json, os, subprocess, sys, time
cpus, argv = json.loads(sys.argv[1])
os.sched_setaffinity(0, cpus)
t0 = time.perf_counter()
proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
out = proc.stdout.read()
_, status, ru = os.wait4(proc.pid, 0)
json.dump({
    "wall_s": time.perf_counter() - t0, "cpu_s": ru.ru_utime + ru.ru_stime,
    "maxrss_mb": ru.ru_maxrss / 1024.0, "returncode": os.waitstatus_to_exitcode(status),
    "stdout": out.decode("utf-8", "replace"),
}, sys.stdout)
"""


def run_unit(argv, env, cpus=PROGRAM_CPUS, timeout: float = UNIT_TIMEOUT_S) -> Unit:
    """Run ``python <argv>`` to completion from the checkout root, on ``cpus``.

    The launcher reaps it with ``wait4``, whose rusage covers the whole
    process tree: the kernel folds every descendant the unit reaped
    (local-backend workers) into it.  A unit that outlives ``timeout`` is
    killed with its launcher and comes back with a non-zero return code.
    """
    spec = json.dumps([sorted(cpus), [sys.executable, *argv]])
    launcher = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, spec], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        out, _ = launcher.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)  # the launcher's session: it and the unit
        launcher.communicate()
        out = b""
    if launcher.returncode != 0:
        return Unit(wall_s=timeout, cpu_s=0.0, maxrss_mb=0.0, returncode=-1, stdout="")
    return Unit(**json.loads(out))


def theory_text(stdout: str) -> str:
    """The clauses ``repro learn`` printed (everything that is not a ``%``
    comment line) with white space collapsed, so that it can be compared
    with the one-line clauses of ``golden.json`` joined by spaces."""
    return " ".join(
        word for ln in stdout.splitlines() if not ln.startswith("%") for word in ln.split()
    )


# -- the server ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port.

    ``launcher`` is the argv prefix that ends up calling the CLI:
    ``["-m", "repro"]`` untraced, ``["bench/tracing.py", ...]`` traced.
    Always used as a context manager: exit asks for a ``shutdown`` and
    falls back to kill, so a failed run leaves no process behind.
    """

    def __init__(self, env, registry_dir, state_dir, launcher=("-m", "repro")):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, *launcher, "serve", "--port", "0", "--slots", "1",
                "--registry-dir", str(registry_dir), "--state-dir", str(state_dir),
            ],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            # Just spawned, so one thread; later threads inherit the mask.
            os.sched_setaffinity(self.proc.pid, PROGRAM_CPUS)
        except ProcessLookupError:
            pass  # already gone; the missing port announcement says so below
        self.pid = self.proc.pid
        self.port = self._read_port()

    def _read_port(self) -> int:
        # `repro serve` announces "% serving on HOST:PORT (...)" once bound.
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        try:
            return int(line.split("serving on ", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not announce a port: {line!r}") from None

    def cpu_s(self) -> float:
        """CPU the server process has used so far (all threads), in
        nanosecond resolution from schedstat, clock ticks as a fallback."""
        paths = glob.glob(f"/proc/{self.pid}/task/*/schedstat")
        total = 0
        for path in paths:
            try:
                with open(path) as fh:
                    total += int(fh.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass  # a thread exited between glob and read
        if total:
            return total / 1e9
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=2.0) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.settimeout(2.0)
                sock.recv(4096)
            self.proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


# -- host speed and provenance ---------------------------------------------------------


#: The host-speed sample: an arithmetic loop and a pointer chase through a
#: dict far bigger than the L2 cache — interpreter-bound and memory-bound
#: work, the two things the program is made of.  HOST_REF_MS is what a
#: sample reads when this sandbox is quiet.
SPIN_ITERS = 500_000
WALK_STEPS = 150_000
WALK_TABLE = 300_000
HOST_REF_MS = 14.4
HOST_SAMPLES = 3



@functools.cache
def _walk_table() -> dict:
    """300k dict entries, each naming a random next one (~60 MB, 0.3 s to build)."""
    rng = random.Random(1)
    return {i: (rng.randrange(WALK_TABLE), (i, i + 1)) for i in range(WALK_TABLE)}


def host_ms(cpus) -> list:
    """HOST_SAMPLES samples per CPU of ``cpus`` of what the host charges
    for constant work there, right now: the geometric mean of the two
    loops' times.  Workloads take them on the program's cores between
    units and rounds; run.py divides the timings by their mean (README,
    "What the host does to the numbers")."""
    table = _walk_table()
    mine = os.sched_getaffinity(0)
    out = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            for _ in range(HOST_SAMPLES):
                t0 = time.perf_counter()
                x = 0
                for i in range(SPIN_ITERS):
                    x += i
                t1 = time.perf_counter()
                k = 0
                for _ in range(WALK_STEPS):
                    k, pair = table[k]
                    x += pair[0]
                t2 = time.perf_counter()
                out.append(math.sqrt((t1 - t0) * (t2 - t1)) * 1000.0)
    finally:
        os.sched_setaffinity(0, mine)
    return out


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
