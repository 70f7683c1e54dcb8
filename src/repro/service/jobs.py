"""Learning jobs: declarative specs and their execution.

A :class:`JobSpec` names everything one learning run needs — dataset,
algorithm, processor count, backend, seed — in plain data, so it can
travel as JSON over the service socket and as a wire-codec payload in
the scheduler's durable job records.  :func:`run_job` executes a spec
through the exact same front-ends the CLI uses (``mdie`` /
``run_p2mdie`` / ``run_coverage_parallel`` / ``run_independent``), so a
job's learned theory is bit-identical to the corresponding direct
``repro learn`` invocation.

Checkpoint-capable algorithms (``mdie``, ``p2mdie``, ``covpar``) may be
run in epoch *chunks* (``max_epochs`` + ``resume``), which is what gives
the scheduler preemption points for cancellation and crash-resume
without touching the algorithms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.datasets import DATASETS, make_dataset
from repro.ilp import accuracy, mdie
from repro.logic.clause import Clause, Theory
from repro.parallel import wire

__all__ = [
    "ALGOS",
    "JobSpec",
    "JobRecord",
    "JobOutcome",
    "OutcomeSummary",
    "run_job",
]

#: algorithms a job may request.  ``mdie`` is the sequential baseline
#: (always p=1); the other three are the parallel strategies.
ALGOS = ("mdie", "p2mdie", "covpar", "independent")

#: algorithms that write epoch-boundary checkpoints (and can therefore
#: be preempted and resumed by the scheduler).
CHECKPOINTABLE = ("mdie", "p2mdie", "covpar")

#: wire type code of the durable job record (append-only registry;
#: 21 = checkpoint, 22 = registry record, 23 = job record).
_WIRE_CODE = 23

#: ``JobSpec.width`` sentinel: use the config's ``pipeline_width``.
WIDTH_DEFAULT = -1
#: ``JobSpec.width`` sentinel: the paper's "nolimit".
WIDTH_NOLIMIT = -2


@dataclass(frozen=True)
class JobSpec:
    """One declarative learning request.

    Attributes
    ----------
    dataset:
        Registered dataset name (see :data:`repro.datasets.DATASETS`).
    algo:
        One of :data:`ALGOS`.
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
        meaningful for :data:`CHECKPOINTABLE` algorithms.
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
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}; known: {ALGOS}")
        if self.algo != "mdie" and self.p < 1:
            raise ValueError("p must be >= 1")
        from repro.backend import BACKEND_NAMES

        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"job backend must be one of {BACKEND_NAMES}")
        if self.scale not in ("small", "paper"):
            raise ValueError("scale must be 'small' or 'paper'")
        if self.width != WIDTH_DEFAULT and self.width != WIDTH_NOLIMIT and self.width < 1:
            raise ValueError("width must be positive, WIDTH_DEFAULT or WIDTH_NOLIMIT")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.preemptible and self.algo not in CHECKPOINTABLE:
            raise ValueError(
                f"algo {self.algo!r} writes no checkpoints and cannot be "
                f"preemptible (checkpointable: {CHECKPOINTABLE})"
            )
        if self.max_epochs is not None and self.algo == "independent":
            raise ValueError(
                "algo 'independent' has a single merge epoch; max_epochs "
                "does not apply"
            )
        if self.register_as is not None:
            from repro.service.registry import validate_name

            validate_name(self.register_as)

    @property
    def checkpointable(self) -> bool:
        return self.algo in CHECKPOINTABLE

    def replace(self, **kw) -> "JobSpec":
        return replace(self, **kw)

    # -- JSON travel (service socket) -------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form for the JSON-lines protocol."""
        return {
            "dataset": self.dataset,
            "algo": self.algo,
            "p": self.p,
            "width": self.width,
            "seed": self.seed,
            "scale": self.scale,
            "backend": self.backend,
            "priority": self.priority,
            "max_epochs": self.max_epochs,
            "preemptible": self.preemptible,
            "register_as": self.register_as,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {
            "dataset", "algo", "p", "width", "seed", "scale", "backend",
            "priority", "max_epochs", "preemptible", "register_as",
        }
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown job-spec fields: {sorted(extra)}")
        if "dataset" not in d:
            raise ValueError("job spec needs a 'dataset'")
        return cls(**d)


@dataclass(frozen=True)
class OutcomeSummary:
    """Wire-persistable digest of a finished job's :class:`JobOutcome`.

    Exactly the plain-data view :meth:`JobOutcome.summary` serves over
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
    def from_outcome(cls, outcome: "JobOutcome") -> "OutcomeSummary":
        return cls(**outcome.summary())

    def to_dict(self) -> dict:
        return {
            "rules": self.rules,
            "epochs": self.epochs,
            "seconds": self.seconds,
            "uncovered": self.uncovered,
            "ops": self.ops,
            "mbytes": self.mbytes,
            "train_accuracy": self.train_accuracy,
            "theory": self.theory,
        }


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


@dataclass
class JobOutcome:
    """Artifacts of one completed job (whatever the algorithm)."""

    theory: Theory
    epochs: int
    #: virtual seconds (sim / sequential cost model) or wall seconds (local).
    seconds: float
    uncovered: int
    #: engine operations (sequential mdie) — 0 for parallel runs.
    ops: int = 0
    #: communication volume in MB (parallel runs) — 0.0 for mdie.
    mbytes: float = 0.0
    #: training accuracy (percent) on the job's dataset.
    train_accuracy: float = 0.0
    #: True when the covering loop ran to completion (not an epoch cap).
    finished: bool = True
    #: :meth:`ILPConfig.signature` of the config the run used (registry provenance).
    config_sig: str = ""
    epoch_logs: list = field(default_factory=list)

    def summary(self) -> dict:
        """Plain-data summary for status responses (theory as Prolog text)."""
        from repro.logic.io import theory_to_prolog

        return {
            "rules": len(self.theory),
            "epochs": self.epochs,
            "seconds": round(self.seconds, 3),
            "uncovered": self.uncovered,
            "ops": self.ops,
            "mbytes": round(self.mbytes, 6),
            "train_accuracy": round(self.train_accuracy, 2),
            "theory": theory_to_prolog(self.theory),
        }


def _width_arg(spec: JobSpec, config) -> Optional[int]:
    if spec.width == WIDTH_DEFAULT:
        return config.pipeline_width
    if spec.width == WIDTH_NOLIMIT:
        return None
    return spec.width


def run_job(
    spec: JobSpec,
    *,
    checkpoint_dir: Optional[str] = None,
    resume=None,
    max_epochs: Optional[int] = None,
) -> JobOutcome:
    """Execute one job spec through the standard run front-ends.

    ``checkpoint_dir`` / ``resume`` / ``max_epochs`` are the chunking
    hooks the scheduler uses for preemptible jobs; they forward directly
    to the front-ends' checkpoint machinery, so a chunked job's final
    theory is bit-identical to a one-shot run (the guarantee pinned by
    ``tests/fault/test_resume.py``).  ``max_epochs`` is absolute (total
    completed epochs), overriding ``spec.max_epochs`` when given.
    """
    ds = make_dataset(spec.dataset, seed=spec.seed, scale=spec.scale)
    cap = max_epochs if max_epochs is not None else spec.max_epochs
    meta = (
        ("dataset", spec.dataset),
        ("scale", spec.scale),
        ("p", str(spec.p)),
        ("width", str(spec.width)),
    )
    if spec.algo == "mdie":
        res = mdie(
            ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=spec.seed,
            max_epochs=cap, checkpoint_dir=checkpoint_dir,
            checkpoint_meta=meta, resume=resume,
        )
        from repro.parallel import sequential_seconds

        outcome = JobOutcome(
            theory=res.theory,
            epochs=res.epochs,
            seconds=sequential_seconds(res),
            uncovered=res.uncovered,
            ops=res.ops,
            finished=_seq_finished(res, cap),
        )
    elif spec.algo == "independent":
        from repro.parallel import run_independent

        res = run_independent(
            ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=spec.p,
            width=_width_arg(spec, ds.config), seed=spec.seed, backend=spec.backend,
        )
        # Single merge epoch, no cap parameter: always ran to completion.
        outcome = _parallel_outcome(res, None)
    else:
        if spec.algo == "p2mdie":
            from repro.parallel import run_p2mdie as front
        else:
            from repro.parallel import run_coverage_parallel as front

        kw = dict(
            p=spec.p, seed=spec.seed, backend=spec.backend, max_epochs=cap,
            checkpoint_dir=checkpoint_dir, checkpoint_meta=meta, resume=resume,
        )
        if spec.algo == "p2mdie":
            kw["width"] = _width_arg(spec, ds.config)
        res = front(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, **kw)
        outcome = _parallel_outcome(res, cap)
    engine = ds.config.make_engine(ds.kb)
    outcome.train_accuracy = accuracy(engine, outcome.theory, ds.pos, ds.neg)
    outcome.config_sig = ds.config.signature()
    return outcome


def _seq_finished(res, cap: Optional[int]) -> bool:
    # An epoch-capped run that hit the cap may have had more work to do;
    # everything else terminated because the covering loop was done.
    return not (cap is not None and res.epochs >= cap and res.uncovered > 0)


def _parallel_outcome(res, cap: Optional[int]) -> JobOutcome:
    return JobOutcome(
        theory=res.theory,
        epochs=res.epochs,
        seconds=res.seconds,
        uncovered=res.uncovered,
        mbytes=res.mbytes,
        finished=not (cap is not None and res.epochs >= cap and res.uncovered > 0),
        epoch_logs=list(getattr(res, "epoch_logs", [])),
    )


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
