"""Learning jobs: declarative specs and their execution.

A :class:`JobSpec` names everything one learning run needs — dataset,
algorithm, processor count, backend, seed — in plain data, so it can
travel as JSON over the service socket and as a wire-codec payload in
the scheduler's durable job records.  :func:`run_job` takes the spec's
dataset from :func:`shared_dataset` and runs it through
:func:`repro.run.run`, the front door ``repro learn`` also uses, so a
job's learned theory is bit-identical to the corresponding direct
``repro learn`` invocation.

:func:`shared_dataset` is the service's one dataset cache: jobs, the
chunks of a preemptible job and the query tier's prepared theories on one
``(dataset, seed, scale)`` share one knowledge base, its argument indexes
and its saturation-cache entries.  A saturation hit replays the
operations it recorded, so sharing moves no op count, virtual second or
theory.  The cache keeps the :data:`DATASET_CACHE_CAP` most recently used
datasets: a job's seed comes from the client, so an unbounded cache would
let clients grow the server's memory without limit.

Checkpoint-capable algorithms (``mdie``, ``p2mdie``, ``covpar``) may be
run in epoch *chunks* (``max_epochs`` + ``resume``), which is what gives
the scheduler preemption points for cancellation and crash-resume
without touching the algorithms themselves.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from repro.datasets import DATASETS, Dataset, make_dataset
from repro.ilp import accuracy
from repro.parallel import wire
from repro.run import BACKEND_NAMES, CHECKPOINTABLE, RunOutcome, refusal, run

__all__ = [
    "JobSpec",
    "JobRecord",
    "OutcomeSummary",
    "run_job",
    "shared_dataset",
]

#: wire type code of the durable job record (append-only registry;
#: 21 = checkpoint, 22 = registry record, 23 = job record).
_WIRE_CODE = 23

#: ``JobSpec.width`` sentinel: use the config's ``pipeline_width``.
WIDTH_DEFAULT = -1
#: ``JobSpec.width`` sentinel: the paper's "nolimit".
WIDTH_NOLIMIT = -2

#: datasets :func:`shared_dataset` keeps, least recently used evicted first.
DATASET_CACHE_CAP = 8

_datasets: "OrderedDict[tuple, Dataset]" = OrderedDict()
_datasets_lock = threading.Lock()


def shared_dataset(name: str, seed: int, scale: str) -> Dataset:
    """The service's one cached dataset for ``(name, seed, scale)``.

    A miss builds it with this module's ``make_dataset``, so a rebinding
    of that name (``bench/tracing.py`` wraps it) sees every build.

    The build runs outside the lock: generation can take seconds and must
    not stall hits on other datasets.  Two threads that miss on one key
    both build it and both get the dataset published first.
    """
    key = (name, seed, scale)
    with _datasets_lock:
        ds = _datasets.get(key)
        if ds is not None:
            _datasets.move_to_end(key)
            return ds
    built = make_dataset(name, seed=seed, scale=scale)
    with _datasets_lock:
        ds = _datasets.setdefault(key, built)
        _datasets.move_to_end(key)
        while len(_datasets) > DATASET_CACHE_CAP:
            _datasets.popitem(last=False)
    return ds


@dataclass(frozen=True)
class JobSpec:
    """One declarative learning request.

    Attributes
    ----------
    dataset:
        Registered dataset name (see :data:`repro.datasets.DATASETS`).
    algo:
        One of :data:`repro.run.ALGOS`.
    p:
        Worker count for the parallel algorithms (ignored by ``mdie``).
    width:
        Pipeline width: a positive int, :data:`WIDTH_DEFAULT` (use the
        dataset config's width) or :data:`WIDTH_NOLIMIT`.
    seed / scale:
        Dataset + run determinism knobs, as in ``repro learn``.
    backend:
        Execution substrate for parallel algorithms: ``"sim"``,
        ``"local"`` or ``"mpi"``.  An ``"mpi"`` job requires the service
        process to be rank 0 of an ``mpiexec`` launch whose world size
        matches the job's ``p`` (+1 master), and MPI jobs serialize over
        the one shared communicator — run them on a single-slot
        scheduler.  Without mpi4py the job fails cleanly at run time
        with a ``BackendUnavailableError`` outcome.
    priority:
        Scheduler queue priority — higher runs first; ties are FIFO.
    max_epochs:
        Optional cap on covering epochs (absolute, as in the front-ends).
    preemptible:
        Run in epoch chunks with checkpoints between them, giving the
        scheduler cancellation points mid-run and crash-resume.  Only
        meaningful for :data:`repro.run.CHECKPOINTABLE` algorithms.
    register_as:
        When set, publish the learned theory under this name in the
        scheduler's :class:`~repro.service.registry.TheoryRegistry`.
    """

    dataset: str
    algo: str = "mdie"
    p: int = 1
    width: int = WIDTH_DEFAULT
    seed: int = 0
    scale: str = "small"
    backend: str = "sim"
    priority: int = 0
    max_epochs: Optional[int] = None
    preemptible: bool = False
    register_as: Optional[str] = None

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; known: {sorted(DATASETS)}")
        reason = refusal(
            self.algo, self.p, max_epochs=self.max_epochs, checkpoint=self.preemptible
        )
        if reason:
            raise ValueError(reason)
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"job backend must be one of {BACKEND_NAMES}")
        if self.scale not in ("small", "paper"):
            raise ValueError("scale must be 'small' or 'paper'")
        if self.width != WIDTH_DEFAULT and self.width != WIDTH_NOLIMIT and self.width < 1:
            raise ValueError("width must be positive, WIDTH_DEFAULT or WIDTH_NOLIMIT")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.register_as is not None:
            from repro.service.registry import validate_name

            validate_name(self.register_as)

    @property
    def checkpointable(self) -> bool:
        return self.algo in CHECKPOINTABLE

    # -- JSON travel (service socket) -------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form for the JSON-lines protocol."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown job-spec fields: {sorted(extra)}")
        if "dataset" not in d:
            raise ValueError("job spec needs a 'dataset'")
        return cls(**d)


@dataclass(frozen=True)
class OutcomeSummary:
    """Wire-persistable digest of a finished job's :class:`~repro.run.RunOutcome`.

    Exactly the plain-data view :meth:`RunOutcome.summary` serves over
    the protocol — embedded in the durable :class:`JobRecord` so ``done``
    jobs keep their outcome (theory text included) across scheduler
    restarts instead of degrading to a bare state string.
    """

    rules: int
    epochs: int
    seconds: float
    uncovered: int
    ops: int
    mbytes: float
    train_accuracy: float
    #: the learned theory as Prolog text.
    theory: str

    @classmethod
    def from_outcome(cls, outcome: RunOutcome) -> "OutcomeSummary":
        return cls(**outcome.summary())

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class JobRecord:
    """Durable scheduler-side view of one job (spec + lifecycle state).

    Persisted per state transition (wire code 23) when the scheduler has
    a ``state_dir``, so an interrupted scheduler can recover its queue —
    see :meth:`repro.service.scheduler.JobScheduler.recover_jobs`.  The
    terminal ``done`` transition embeds an :class:`OutcomeSummary`, so
    finished jobs survive restarts with their results, and ``failed``
    ones with their error.
    """

    job_id: str
    seq: int
    spec: JobSpec
    #: "queued" | "running" | "done" | "failed" | "cancelled"
    state: str
    #: covering epochs completed so far (chunked jobs advance this).
    epochs_done: int = 0
    error: str = ""
    #: present on persisted ``done`` records.
    outcome: Optional[OutcomeSummary] = None
    #: client-supplied idempotency key (submit dedup across retries and
    #: scheduler restarts); None when the client sent none.
    idem_key: Optional[str] = None

    def replace(self, **kw) -> "JobRecord":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        d = {"job": self.job_id, "seq": self.seq, "state": self.state,
             "epochs_done": self.epochs_done, "spec": self.spec.to_dict()}
        if self.error:
            d["error"] = self.error
        if self.outcome is not None:
            d["outcome"] = self.outcome.to_dict()
        if self.idem_key is not None:
            d["idem_key"] = self.idem_key
        return d


def run_job(
    spec: JobSpec,
    *,
    checkpoint_dir: Optional[str] = None,
    resume=None,
    max_epochs: Optional[int] = None,
) -> RunOutcome:
    """Execute one job spec through :func:`repro.run.run` on its shared dataset.

    The dataset comes from :func:`shared_dataset`, so jobs and queries on
    one ``(dataset, seed, scale)`` learn and answer on one KB.

    ``checkpoint_dir`` / ``resume`` / ``max_epochs`` are the chunking
    hooks the scheduler uses for preemptible jobs; they forward directly
    to the front-ends' checkpoint machinery, so a chunked job's final
    theory is bit-identical to a one-shot run (the guarantee pinned by
    ``tests/fault/test_resume.py``).  ``max_epochs`` is absolute (total
    completed epochs), overriding ``spec.max_epochs`` when given.
    """
    ds = shared_dataset(spec.dataset, spec.seed, spec.scale)
    outcome = run(
        ds, spec.algo, p=spec.p, seed=spec.seed, backend=spec.backend, scale=spec.scale,
        width={WIDTH_DEFAULT: ..., WIDTH_NOLIMIT: None}.get(spec.width, spec.width),
        max_epochs=max_epochs if max_epochs is not None else spec.max_epochs,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    engine = ds.config.make_engine(ds.kb)
    outcome.train_accuracy = accuracy(engine, outcome.theory, ds.pos, ds.neg)
    outcome.config_sig = ds.config.signature()
    return outcome


# -- wire codec for the durable job record ----------------------------------------


def _enc_job_record(e, r: JobRecord) -> None:
    e.sym(r.job_id)
    e.u(r.seq)
    e.sym(r.state)
    e.u(r.epochs_done)
    e.sym(r.error)
    s = r.spec
    e.sym(s.dataset)
    e.sym(s.algo)
    e.u(s.p)
    e.z(s.width)
    e.z(s.seed)
    e.sym(s.scale)
    e.sym(s.backend)
    e.z(s.priority)
    e.flag(s.max_epochs is not None)
    if s.max_epochs is not None:
        e.u(s.max_epochs)
    e.flag(s.preemptible)
    e.flag(s.register_as is not None)
    if s.register_as is not None:
        e.sym(s.register_as)
    e.flag(r.outcome is not None)
    if r.outcome is not None:
        o = r.outcome
        e.u(o.rules)
        e.u(o.epochs)
        # Floats travel as repr text: exact round-trip, symbol-table cheap.
        e.sym(repr(o.seconds))
        e.u(o.uncovered)
        e.u(o.ops)
        e.sym(repr(o.mbytes))
        e.sym(repr(o.train_accuracy))
        e.sym(o.theory)
    e.flag(r.idem_key is not None)
    if r.idem_key is not None:
        e.sym(r.idem_key)


def _dec_outcome_summary(d) -> OutcomeSummary:
    rules = d.u()
    epochs = d.u()
    seconds = float(d.sym())
    uncovered = d.u()
    ops = d.u()
    return OutcomeSummary(
        rules=rules,
        epochs=epochs,
        seconds=seconds,
        uncovered=uncovered,
        ops=ops,
        mbytes=float(d.sym()),
        train_accuracy=float(d.sym()),
        theory=d.sym(),
    )


def _dec_job_record(d) -> JobRecord:
    job_id = d.sym()
    seq = d.u()
    state = d.sym()
    epochs_done = d.u()
    error = d.sym()
    spec = JobSpec(
        dataset=d.sym(),
        algo=d.sym(),
        p=d.u(),
        width=d.z(),
        seed=d.z(),
        scale=d.sym(),
        backend=d.sym(),
        priority=d.z(),
        max_epochs=d.u() if d.flag() else None,
        preemptible=d.flag(),
        register_as=d.sym() if d.flag() else None,
    )
    outcome = _dec_outcome_summary(d) if d.flag() else None
    idem_key = d.sym() if d.flag() else None
    return JobRecord(
        job_id=job_id, seq=seq, spec=spec, state=state,
        epochs_done=epochs_done, error=error, outcome=outcome,
        idem_key=idem_key,
    )


wire.register_codec(JobRecord, _WIRE_CODE, _enc_job_record, _dec_job_record)
