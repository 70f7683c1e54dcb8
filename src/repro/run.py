"""One front door for a learning run.

``repro learn`` / ``resume`` / ``trace``, :func:`repro.service.jobs.run_job`,
the table cells of :func:`repro.experiments.runner.run_cell` and the fault
sweep all hand a built :class:`~repro.datasets.base.Dataset` to :func:`run`
and get one :class:`RunOutcome` back.  This module owns three decisions
that each of them used to make for itself:

* which front-end serves which algorithm, and which options it accepts
  (:data:`ALGOS`, :func:`refusal`);
* how a run gets its seconds, and in which clock: the sequential cost
  model and the simulator count ``"virtual"`` seconds, real processes
  ``"wall"`` seconds;
* the checkpoint ``meta``, written on save and read back on resume
  (:class:`RunMeta`).

Callers build the dataset and score the theory themselves.  The parallel
front-ends are imported when a parallel run starts, so a sequential run
loads no parallel stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.costmodel import DEFAULT_COST_MODEL, sequential_seconds
from repro.ilp.mdie import mdie
from repro.logic.clause import Theory

__all__ = ["ALGOS", "BACKEND_NAMES", "CHECKPOINTABLE", "RunMeta", "RunOutcome", "refusal", "run"]

#: the algorithms :func:`run` serves.  ``mdie`` is the sequential
#: baseline (always one process); the other three are the parallel
#: strategies.
ALGOS = ("mdie", "p2mdie", "covpar", "independent")

#: the backend names :func:`run` accepts, each built by
#: :func:`repro.backend.make_backend`: the CLI's ``--backend`` choices, and
#: re-exported by ``repro.backend``.  Defined here, which every run loads,
#: so that naming a backend loads no part of ``repro.backend``.
BACKEND_NAMES = ("sim", "local", "mpi")

#: algorithms that write epoch-boundary checkpoints and can resume.
CHECKPOINTABLE = ("mdie", "p2mdie", "covpar")


def refusal(
    algo: str, p: int = 1, *, fault_plan: bool = False, spares: int = 0,
    trace: bool = False, max_epochs: Optional[int] = None, checkpoint: bool = False,
) -> Optional[str]:
    """Why ``algo`` cannot run with these options, or None when it can.

    The one rule behind the CLI's exit 2, :class:`~repro.service.jobs.JobSpec`'s
    ``ValueError`` and :func:`run`'s own check.  ``fault_plan``, ``trace``
    and ``checkpoint`` say whether the option is given at all.
    """
    if algo not in ALGOS:
        return f"unknown algo {algo!r}; known: {ALGOS}"
    if algo != "mdie" and p < 1:
        return "p must be >= 1"
    if spares < 0:
        return "spares must be >= 0"
    if algo == "mdie" and (fault_plan or spares):
        return "a fault plan or spares need p > 1 (sequential mdie has no worker pool)"
    if spares and not fault_plan:
        return "spares require a fault plan (standby hosts are a fault-tolerance feature)"
    if trace and algo != "p2mdie":
        return f"{algo} records no activity trace (only p2mdie with p > 1 does)"
    if checkpoint and algo not in CHECKPOINTABLE:
        return f"algo {algo!r} writes no checkpoints (checkpointable: {CHECKPOINTABLE})"
    if max_epochs is not None and algo == "independent":
        return "algo 'independent' has a single merge epoch; max_epochs does not apply"
    return None


#: width spellings in checkpoint meta that are not a number of rules:
#: older job checkpoints wrote ``"-1"`` (the config's width) and ``"-2"``.
_WIDTH_WORDS = {"nolimit": None, "-2": None, "-1": ...}


@dataclass(frozen=True)
class RunMeta:
    """What a checkpoint records about the run that wrote it."""

    dataset: str
    scale: str
    p: int
    #: pipeline width; None is "nolimit".  ``...`` (read back from an old
    #: job checkpoint) is the dataset config's width.
    width: object

    def pairs(self) -> tuple:
        """The checkpoint ``meta`` written on save."""
        return (
            ("dataset", self.dataset),
            ("scale", self.scale),
            ("p", str(self.p)),
            ("width", "nolimit" if self.width is None else str(self.width)),
        )

    @classmethod
    def read(cls, state) -> "RunMeta":
        """The meta of a loaded :class:`~repro.fault.checkpoint.CheckpointState`."""
        meta = state.meta_dict()
        if "dataset" not in meta:
            raise ValueError(
                "checkpoint carries no dataset metadata (was it written by "
                "`repro learn --checkpoint-dir`?)"
            )
        text = meta.get("width", "10")
        return cls(
            dataset=meta["dataset"],
            scale=meta.get("scale", "small"),
            p=int(meta.get("p", state.n_workers)),
            width=_WIDTH_WORDS[text] if text in _WIDTH_WORDS else int(text),
        )


@dataclass
class RunOutcome:
    """Artifacts of one finished run, whatever the algorithm."""

    algo: str
    theory: Theory
    epochs: int
    seconds: float
    #: "virtual" (sequential cost model, simulator) or "wall" (real processes).
    clock: str
    uncovered: int
    #: engine operations (sequential mdie) — 0 for parallel runs.
    ops: int = 0
    #: communication volume in MB (parallel runs) — 0.0 for mdie.
    mbytes: float = 0.0
    #: evaluation-cache counters, summed over workers for parallel runs.
    cache_hits: int = 0
    cache_misses: int = 0
    #: training accuracy (percent); set by the caller that scores the theory.
    train_accuracy: float = 0.0
    #: True when the covering loop ran to completion (not an epoch cap).
    finished: bool = True
    #: :meth:`ILPConfig.signature` of the config the run used (registry provenance).
    config_sig: str = ""
    epoch_logs: list = field(default_factory=list)
    #: activity spans, one per compute interval (``record_trace=True`` p2mdie runs).
    trace: list = field(default_factory=list)
    #: master-observed recovery narrative and substrate-injected fault events.
    fault_events: list = field(default_factory=list)
    fault_log: list = field(default_factory=list)

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


def run(
    ds, algo: str = "mdie", *, p: int = 1, width=..., seed: int = 0, backend=None,
    scale: str = "small", max_epochs: Optional[int] = None, batch_size: int = 1,
    record_trace: bool = False, fault_plan=None, spares: int = 0,
    checkpoint_dir: Optional[str] = None, resume=None,
) -> RunOutcome:
    """Run ``algo`` on ``ds`` through its front-end.

    ``width=...`` is the dataset config's pipeline width; None is
    "nolimit".  ``backend`` is a name, a ready
    :class:`~repro.backend.Backend` or None (the simulator); ``mdie``
    always runs in-process, its seconds priced by the backend's cost model
    (a ``SimBackend``'s) or else the default one.
    ``scale`` is recorded in the checkpoint meta with the dataset name,
    ``p`` and the width.  ``batch_size`` is covpar's, ``record_trace``
    p2mdie's.  Options the algorithm does not take are refused with the
    :func:`refusal` reason as a ``ValueError``.
    """
    reason = refusal(
        algo, p, fault_plan=fault_plan is not None, spares=spares, trace=record_trace,
        max_epochs=max_epochs, checkpoint=checkpoint_dir is not None or resume is not None,
    )
    if reason:
        raise ValueError(reason)
    if width is ...:
        width = ds.config.pipeline_width
    kw: dict = dict(seed=seed)
    if algo in CHECKPOINTABLE:
        meta = RunMeta(ds.name, scale, p, width).pairs()
        kw.update(
            max_epochs=max_epochs, checkpoint_dir=checkpoint_dir, checkpoint_meta=meta,
            resume=resume,
        )
    problem = (ds.kb, ds.pos, ds.neg, ds.modes, ds.config)
    if algo == "mdie":
        res = mdie(*problem, **kw)
        cost_model = getattr(backend, "cost_model", DEFAULT_COST_MODEL)
        out = RunOutcome(
            algo, res.theory, res.epochs, sequential_seconds(res, cost_model), "virtual",
            res.uncovered, ops=res.ops,
        )
    else:
        kw.update(
            p=p, backend=backend, fault_plan=fault_plan, spares=spares,
        )
        if algo == "p2mdie":
            from repro.parallel.p2mdie import run_p2mdie as front

            kw.update(width=width, record_trace=record_trace)
        elif algo == "covpar":
            from repro.parallel.coverage_parallel import run_coverage_parallel as front

            kw.update(batch_size=batch_size)
        else:
            from repro.parallel.independent import run_independent as front

            kw.update(width=width)
        res = front(*problem, **kw)
        name = backend if isinstance(backend, str) else getattr(backend, "name", "sim")
        out = RunOutcome(
            algo, res.theory, res.epochs, res.seconds, "virtual" if name == "sim" else "wall",
            res.uncovered, mbytes=res.mbytes, epoch_logs=list(res.epoch_logs),
            trace=res.trace, fault_events=list(res.fault_events), fault_log=list(res.fault_log),
        )
    out.cache_hits, out.cache_misses = res.cache_hits, res.cache_misses
    out.finished = not (max_epochs is not None and res.epochs >= max_epochs and res.uncovered > 0)
    return out
