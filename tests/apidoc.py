"""Generate ``docs/api.md`` from the code's own docstrings.

The API reference's signature tables are *generated*, not hand-written:
each table row is built from the live object — ``inspect.signature``
for the call shape, the docstring's first line for the summary — and
the CLI table is walked out of :func:`repro.cli.build_parser`.  Renamed
functions, new parameters, added subcommands and reworded docstrings
all land in the doc on the next ``--write``; CI runs ``--check`` so the
committed page can never drift from the code.

Prose that genuinely is prose (section intros, invariants, the worked
example) lives here as literals — the single source the page is built
from.  This is a development tool, not part of the package: it lives
beside the tests that run it and finds the page from its own place in
the checkout::

    PYTHONPATH=src python tests/apidoc.py --check   # CI: drift gate
    PYTHONPATH=src python tests/apidoc.py --write   # refresh the page

The worked example block is executed by ``tests/test_docs.py`` like
every fenced block in the docs, so the generator cannot emit a dead
example either.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

__all__ = ["render_api_doc", "api_doc_path", "main"]

#: the checkout this file sits in (``tests/apidoc.py``).
ROOT = pathlib.Path(__file__).resolve().parent.parent


def api_doc_path() -> pathlib.Path:
    return ROOT / "docs" / "api.md"


# -- signature + summary extraction ------------------------------------------------


def _default_repr(value) -> str:
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    if isinstance(value, tuple) and all(
        isinstance(v, (bool, int, float, str, bytes, type(None))) for v in value
    ):
        return repr(value)
    return "..."


def _signature(obj) -> str:
    """Compact call signature: no annotations, simple defaults only."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    parts = []
    for p in sig.parameters.values():
        if p.name in ("self", "cls"):
            continue
        name = p.name
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            name = f"*{name}"
        elif p.kind is inspect.Parameter.VAR_KEYWORD:
            name = f"**{name}"
        elif p.default is not inspect.Parameter.empty:
            name = f"{name}={_default_repr(p.default)}"
        parts.append(name)
    return f"({', '.join(parts)})"


def _summary(obj) -> str:
    """First docstring line, table-safe (pipes escaped, one line)."""
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().split("\n", 1)[0].strip()
    return first.replace("|", "\\|")


#: Constants have no docstring of their own (``inspect.getdoc`` falls
#: back to ``dict``/``tuple``), so their summaries are curated here.
_CONST_SUMMARIES = {
    "repro.datasets.DATASETS": "the dataset-generator registry (name → generator)",
    "repro.datasets.SCALES": 'the problem scale names: `("small", "paper")`',
    "repro.service.errors.RETRYABLE_CODES": "error codes a client may safely "
    'retry: `("overloaded", "unavailable", "shutting_down")`',
}


def _table(module_names: list[tuple[str, list[str]]]) -> list[str]:
    """One markdown table covering ``[(module, [name, ...]), ...]``."""
    lines = ["| name | summary (docstring) |", "|------|---------------------|"]
    for module_path, names in module_names:
        module = importlib.import_module(module_path)
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                shown = f"{name}{_signature(obj)}"
                summary = _summary(obj)
            else:
                shown = name  # a constant: registry dict, tuple of names ...
                summary = _CONST_SUMMARIES.get(f"{module_path}.{name}", "")
            lines.append(f"| `{shown}` | {summary or '—'} |")
    return lines


def _cli_table() -> list[str]:
    """The CLI command table, walked out of the argument parser."""
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    helps = {a.dest: a.help or "" for a in sub._choices_actions}
    lines = ["| command | purpose |", "|---------|---------|"]
    for cmd, p in sub.choices.items():
        nested = [
            a for a in p._actions if a.__class__.__name__ == "_SubParsersAction"
        ]
        shown = cmd
        if nested:
            verbs = "\\|".join(nested[0].choices)
            shown = f"{cmd} {verbs}"
        lines.append(f"| `{shown}` | {helps.get(cmd, '').replace('|', chr(92) + '|')} |")
    return lines


# -- the page ----------------------------------------------------------------------

_INTRO = """\
# API reference

A curated map of the public entry points.  **Generated — do not edit by
hand**: signature tables come from the live docstrings via
`tests/apidoc.py` (`PYTHONPATH=src python tests/apidoc.py --write`
refreshes the page, `--check` is the CI drift gate).
Docstrings in the source are the authoritative reference — use `pydoc`
(e.g. `PYTHONPATH=src python -m pydoc repro.service.scheduler`) for the
full text.  Sections are ordered by how you would build an application:
datasets → learning → backends → faults → serving."""

_ILPCONFIG = """\
### `repro.ilp.ILPConfig`

The constraint set `C` plus search and pipeline parameters.  Knobs:
`max_clause_length`, `var_depth`, `recall`, `max_bottom_literals`,
`noise`, `min_pos`, `max_nodes`, `pipeline_width`, `engine_max_depth`,
`engine_max_ops`.  There is one search: every learner, covpar's master
included, searches each bottom clause top-down and breadth-first, as
the paper's April learner did.

There are no optimization flags.  Coverage inheritance, the caches, the
wire codec and the SLD machine's memo table and argument indexes have
one setting, and so does the rest of the paper's April learner: random
seed draw, P − N score, uncoverable seeds skipped, bodies evaluated in
refinement order.  A checkpoint signed with a retired option resumes
only if it holds the one value this code still runs.

`ILPConfig.signature()` is the versioned string that checkpoints, job
outcomes and registry records carry as `config_sig`; `repro resume`
refuses a checkpoint whose signature names a different configuration."""

_BACKEND_NOTE = """\
`run` and the `run_*` front-ends accept `backend=` as an instance or name; the learned theory is identical across substrates for the same seed/config (`tests/backend/test_parity.py`).
A fault plan is an argument of `Backend.run(procs, fault_plan=...)`, never state on a backend.
The simulated fabric and cost model are set in one place, `SimBackend(network=, cost_model=)`: a run on another fabric passes `backend=SimBackend(network=GIGABIT)`."""

_FAULT_NOTE = """\
An empty plan is byte-identical to no plan; a non-empty plan never
changes the learned theory, only time and communication.  Run and
service plans share one strict JSON format (`load` / `save` /
`to_json` / `from_json`): a setting, event kind or field it does not
know is a `ValueError` naming it."""

_SERVICE_NOTE = """\
Invariants: job results are bit-identical to direct runs (whatever the
slot count, chunking or interruptions — preemption reuses the
checkpoint machinery), and batched query results — one span, k
spans, or streamed over the socket — are bit-identical to
one-shot `coverage_eval` / per-example `predicts`.

A minimal end-to-end use from code:

```python
import tempfile

from repro.datasets import make_dataset
from repro.service import JobScheduler, JobSpec, QueryEngine, TheoryRegistry

with tempfile.TemporaryDirectory() as root:
    registry = TheoryRegistry(root)
    with JobScheduler(slots=2, registry=registry) as scheduler:
        job = scheduler.submit(
            JobSpec(dataset="trains", algo="p2mdie", p=2, register_as="demo")
        )
        scheduler.wait(job, timeout=300)
    engine = QueryEngine(registry=registry)
    ds = make_dataset("trains", seed=0)
    result = engine.query("demo", ds.pos + ds.neg)
    print(result.n_covered, "of", result.n, "covered")
```"""

_CLI_NOTE = """\
`python -m repro <command>` (or the `repro` console script after
`pip install -e .`).  Every subcommand also accepts `--profile PATH`
(cProfile dump); the client verbs (`jobs`, `loadgen`) accept `--token`
and `--retries`."""

_RESILIENCE_INTRO = """\
Structured errors carry a machine-readable `code` (codes in
`RETRYABLE_CODES` are safe to retry; shed responses add a
`retry_after` hint).  `ServiceFaultPlan` is the service-tier analogue
of `FaultPlan`: counted, deterministic events — connection resets,
engine-lease failures, scheduler-slot crashes, torn durable writes —
loaded from JSON (`repro serve --fault-plan`).  `run_chaos` drives the
full lifecycle twice (fault-free + under the plan) and gates on result
parity, zero duplicated jobs and zero corrupt records
(`repro loadgen --chaos`)."""

_RESILIENCE_NOTE = """\
Operational guidance — deadlines, retries + idempotency keys,
admission control, graceful drain and quarantine handling — lives in
[operations.md](operations.md)."""

_TELEMETRY_INTRO = """\
Spans record wall-clock activity per rank and ship home over the wire
codec at halt (`repro trace`, `--trace-out`); the metrics registry
backs the `metrics` section of the `stats` service op and the `repro
serve --metrics-port` Prometheus endpoint; the structured logger
correlates every line by request/job id.  The guided tour is [telemetry.md](telemetry.md)."""

#: (section heading, intro-or-None, [(module, [names...]), ...], footer-or-None)
SECTIONS = [
    (
        "## Datasets — `repro.datasets`",
        None,
        [("repro.datasets", ["make_dataset", "Dataset", "register_dataset", "DATASETS", "SCALES"])],
        None,
    ),
    (
        "## Learning — `repro.ilp` and `repro.parallel`",
        None,
        [
            ("repro.ilp", ["mdie", "accuracy", "confusion", "predicts"]),
            ("repro.ilp.coverage", ["coverage_eval", "theory_covered_bits"]),
            ("repro.parallel", ["run_p2mdie", "run_coverage_parallel", "run_independent"]),
            ("repro.run", ["run", "RunOutcome"]),
            ("repro.parallel.partition", ["partition_examples", "shard_spans"]),
        ],
        _ILPCONFIG,
    ),
    (
        "## Execution backends — `repro.backend`",
        None,
        [
            (
                "repro.backend",
                [
                    "Backend", "BackendRun", "SimBackend", "LocalProcessBackend",
                    "make_backend", "resolve_backend",
                ],
            ),
            ("repro.backend.mpi", ["MPIBackend"]),
        ],
        _BACKEND_NOTE,
    ),
    (
        "## Fault tolerance — `repro.fault`",
        None,
        [
            (
                "repro.fault",
                [
                    "FaultPlan", "WorkerCrash", "Straggler", "MessageLoss",
                    "WorkerJoin", "CheckpointState", "save_checkpoint",
                    "load_checkpoint",
                ],
            ),
            ("repro.fault.checkpoint", ["checkpoint_path"]),
        ],
        _FAULT_NOTE,
    ),
    (
        "## Serving — `repro.service`",
        None,
        [
            ("repro.service.jobs", ["JobSpec", "OutcomeSummary", "run_job"]),
            ("repro.service.scheduler", ["JobScheduler"]),
            ("repro.service.registry", ["TheoryRegistry", "RegistryRecord", "theory_diff"]),
            ("repro.service.query", ["QueryEngine", "QueryResult", "PreparedTheory"]),
            ("repro.service.server", ["Service", "serve"]),
            ("repro.service.client", ["ServiceClient"]),
        ],
        _SERVICE_NOTE,
    ),
    (
        "## Service resilience — `repro.service.errors`, `repro.fault.service`, `repro.experiments.chaos`",
        _RESILIENCE_INTRO,
        [
            (
                "repro.service.errors",
                [
                    "ServiceFault", "BadRequest", "Unauthenticated",
                    "DeadlineExceeded", "Cancelled", "Overloaded",
                    "Unavailable", "ShuttingDown", "FrameTooLarge",
                    "RETRYABLE_CODES",
                ],
            ),
            (
                "repro.fault.service",
                [
                    "ServiceFaultPlan", "ConnReset", "LeaseFault",
                    "SlotCrash", "PersistFault", "ServiceFaultInjector",
                ],
            ),
            (
                "repro.experiments.chaos",
                ["run_chaos", "chaos_passed", "chaos_report_lines"],
            ),
        ],
        _RESILIENCE_NOTE,
    ),
    (
        "## Load generation — `repro.experiments.loadgen`",
        None,
        [
            (
                "repro.experiments.loadgen",
                ["run_loadgen", "arrival_schedule", "latency_stats", "percentile"],
            )
        ],
        None,
    ),
    (
        "## Telemetry — `repro.obs` and `repro.util.log`",
        _TELEMETRY_INTRO,
        [
            (
                "repro.obs.span",
                [
                    "Span", "SpanBatch", "Tracer",
                    "write_spans_jsonl", "read_spans_jsonl",
                ],
            ),
            (
                "repro.obs.metrics",
                [
                    "MetricsRegistry", "Counter", "Gauge", "Histogram",
                    "percentile", "DEFAULT_LATENCY_BUCKETS",
                ],
            ),
            (
                "repro.util.log",
                [
                    "StructuredLogger", "get_logger", "log_context",
                    "log_format", "set_log_format", "log_level", "set_log_level",
                ],
            ),
            ("repro.experiments.trace", ["render_gantt", "occupancy", "stage_summary"]),
        ],
        None,
    ),
]


def render_api_doc() -> str:
    """The full ``docs/api.md`` text, rebuilt from the live code."""
    blocks = [_INTRO]
    for heading, intro, module_names, footer in SECTIONS:
        parts = [heading]
        if intro:
            parts.append(intro)
        parts.append("\n".join(_table(module_names)))
        if footer:
            parts.append(footer)
        blocks.append("\n\n".join(parts))
    blocks.append(
        "\n\n".join(
            ["## Command-line interface", _CLI_NOTE, "\n".join(_cli_table())]
        )
    )
    return "\n\n".join(blocks) + "\n"


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    path = api_doc_path()
    rendered = render_api_doc()
    if args == ["--write"]:
        path.write_text(rendered, encoding="utf-8")
        print(f"wrote {path}")
        return 0
    if args == ["--check"]:
        on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
        if on_disk != rendered:
            print(
                f"{path} is stale — regenerate with "
                "`PYTHONPATH=src python tests/apidoc.py --write`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is up to date")
        return 0
    print("usage: python tests/apidoc.py [--check | --write]", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
