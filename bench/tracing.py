"""Spans from outside: wrap the layers' public entry points at run time.

No file under ``src/`` is edited.  :func:`install` rebinds each entry
point *where its callers look it up* (the importing module's global, or
the class attribute for methods) to a wrapper that records a span: name,
layer, start, end, thread CPU time, parent id and one trace id per
top-level call (one CLI unit, one server request, one job).  Spans stay in memory and are written
as JSON lines when the program exits.

Run as a script this is the traced launcher for a program subprocess::

    python bench/tracing.py SPANS.jsonl learn carcinogenesis --scale paper

which is ``python -m repro learn ...`` with the wrappers installed.
Spans inside ``Engine._machine``, inside worker processes, and trace ids
that follow a request through the server's threads are ROADMAP item 1.

(Not named ``trace.py``: as the script directory is first on ``sys.path``
that would shadow the standard library's ``trace`` for the program.)
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (module, dotted attribute, span name, layer).  Layers are the
#: directories of ``src/repro``; ``coverage_eval`` counts as ``logic``
#: because its self time is the engine proving bodies, one example at a time.
TARGETS = (
    ("repro.cli", "make_dataset", "make_dataset", "datasets"),
    ("repro.service.jobs", "make_dataset", "make_dataset", "datasets"),
    ("repro.service.query", "make_dataset", "make_dataset", "datasets"),
    ("repro.ilp.store", "coverage_eval", "coverage_eval", "logic"),
    ("repro.ilp.coverage", "coverage_eval", "coverage_eval", "logic"),
    ("repro.ilp.mdie", "build_bottom_cached", "build_bottom", "ilp"),
    ("repro.ilp.mdie", "learn_rule", "learn_rule", "ilp"),
    ("repro.parallel.worker", "learn_rule", "learn_rule", "ilp"),
    ("repro.ilp.store", "ExampleStore.evaluate", "ExampleStore.evaluate", "ilp"),
    ("repro.cli", "accuracy", "accuracy", "ilp"),
    ("repro.service.jobs", "accuracy", "accuracy", "ilp"),
    ("repro.parallel.wire", "encode_always", "wire.encode", "parallel"),
    ("repro.parallel.wire", "decode", "wire.decode", "parallel"),
    ("repro.backend.local", "LocalProcessBackend.run", "Backend.run", "backend"),
    ("repro.backend.sim", "SimBackend.run", "Backend.run", "backend"),
    ("repro.service.server", "Service.handle", "Service.handle", "service"),
    ("repro.service.server", "Service.query_result", "Service.query_result", "service"),
    ("repro.service.query", "QueryEngine.prepare", "QueryEngine.prepare", "service"),
    ("repro.service.query", "QueryEngine.query", "QueryEngine.query", "service"),
    ("repro.service.registry", "TheoryRegistry.get", "TheoryRegistry.get", "service"),
    ("repro.service.registry", "TheoryRegistry.publish", "TheoryRegistry.publish", "service"),
    ("repro.service.scheduler", "run_job", "run_job", "service"),
)

LAYERS = ("cli", "datasets", "logic", "ilp", "parallel", "backend", "service")


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str, layer: str):
        ids, local, spans = self._ids, self._local, self.spans
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent, trace = stack[-1] if stack else (0, sid)
            stack.append((sid, trace))
            c0 = cpu_clock()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, trace, name, layer, t0, t1, cpu_clock() - c0))

        return traced

    def write(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, layer, t0, t1, cpu in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace, "name": name,
                    "layer": layer, "start": t0, "end": t1, "cpu": cpu,
                }) + "\n")
        return len(self.spans)


def install(recorder: Recorder) -> None:
    """Rebind every target to its recording wrapper."""
    for module_name, attr, name, layer in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, recorder.wrap(getattr(owner, leaf), name, layer))


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_seconds(spans, t_from: float, t_to: float, cpu: bool) -> dict:
    """Self time per layer — a span's duration minus its direct children's
    — over the spans that start inside ``[t_from, t_to]``.  The clock is
    CLOCK_MONOTONIC, shared with the benchmark process, so a window taken
    there selects the program's spans of one phase.  With ``cpu`` the
    durations are the thread's CPU time instead of wall clock: a server's
    spans overlap across threads and some only wait (the ``wait`` op)."""
    def duration(s):
        return s["cpu"] if cpu else s["end"] - s["start"]

    child_time: dict = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s["layer"] in out and t_from <= s["start"] <= t_to:
            out[s["layer"]] += duration(s) - child_time.get(s["id"], 0.0)
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    # The unit's own span: its self time (argument parsing, printing,
    # asyncio, sockets) has no layer and so counts as unattributed.
    unit = recorder.wrap(_run_cli, "unit", "")
    try:
        return unit(recorder, cli_args)
    finally:
        recorder.write(spans_path)


def _run_cli(recorder: Recorder, cli_args) -> int:
    cli = recorder.wrap(importlib.import_module, "import repro.cli", "cli")("repro.cli")
    install(recorder)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
