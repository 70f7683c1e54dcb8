"""P²-MDIE front-end: run the pipelined data-parallel algorithm end-to-end.

``run_p2mdie`` wires a :class:`~repro.parallel.master.P2Master` and ``p``
:class:`~repro.parallel.worker.P2Worker` ranks onto a
:class:`~repro.backend.Backend`, executes to completion and returns
a :class:`P2Result` carrying everything the paper's tables need: the
learned theory, virtual execution time (Table 3), communication volume
(Table 4), and epoch count (Table 5).  Speedups (Table 2) come from
pairing it with a sequential :func:`repro.ilp.mdie.mdie` run via
:func:`sequential_seconds`.

Fault tolerance & elasticity (:mod:`repro.fault`): pass ``fault_plan``
to inject crashes/stragglers/message loss and activate the self-healing
protocol, ``spares`` to provision standby hosts, ``checkpoint_dir`` to
snapshot master learning state at epoch boundaries, and ``resume`` to
continue a checkpointed run bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.backend import Backend, BackendRun, resolve_backend
from repro.cluster.costmodel import sequential_seconds
from repro.cluster.message import CommStats
from repro.fault.plan import FaultPlan, normalize_plan
from repro.ilp.config import ILPConfig
from repro.ilp.modes import ModeSet
from repro.logic.clause import Theory
from repro.logic.knowledge import KnowledgeBase
from repro.logic.terms import Term
from repro.obs.span import Span
from repro.parallel.master import EpochLog, P2Master
from repro.parallel.partition import Partition, partition_examples
from repro.parallel.worker import P2Worker
from repro.run import refusal
from repro.util.rng import make_rng

__all__ = ["WorkerProblem", "SharedProblem", "P2Result", "run_p2mdie", "sequential_seconds"]


@dataclass(frozen=True)
class WorkerProblem:
    """Everything one worker reads from the shared filesystem."""

    kb: KnowledgeBase
    pos: tuple[Term, ...]
    neg: tuple[Term, ...]
    modes: ModeSet
    config: ILPConfig


class SharedProblem:
    """The simulated distributed filesystem (§4.1).

    The paper assumes background knowledge, constraints and example subsets
    are visible to every node through a shared FS, so ``load_examples``
    messages carry only a partition id.  This object plays that role: it
    holds the KB and the partitions; workers read their share by id.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        partitions: Sequence[Partition],
        modes: ModeSet,
        config: ILPConfig,
    ):
        self.kb = kb
        self.partitions = list(partitions)
        self.modes = modes
        self.config = config

    @classmethod
    def partitioned(cls, kb, pos, neg, modes, config, p: int, seed: int) -> "SharedProblem":
        """The problem under the paper's random even split over ``p`` workers."""
        partitions = partition_examples(pos, neg, p, make_rng(seed, "partition"))
        return cls(kb, partitions, modes, config)

    def worker_problem(self, partition_id: int) -> WorkerProblem:
        """Partition ids are worker ranks (1-based)."""
        part = self.partitions[partition_id - 1]
        return WorkerProblem(
            kb=self.kb,
            pos=part.pos,
            neg=part.neg,
            modes=self.modes,
            config=self.config,
        )


@dataclass
class P2Result:
    """Artifacts of one P²-MDIE run (everything Tables 2-6 consume)."""

    theory: Theory
    epochs: int
    #: virtual wall-clock of the whole run, in seconds (Table 3).
    seconds: float
    #: communication accounting (Table 4).
    comm: CommStats
    #: positives left uncovered at termination.
    uncovered: int
    epoch_logs: list[EpochLog] = field(default_factory=list)
    clocks: list[float] = field(default_factory=list)
    trace: list[Span] = field(default_factory=list)
    #: final per-logical-worker evaluation-cache counters: rank ->
    #: (hits, misses).  Recovery-induced cache invalidation shows up here
    #: (adopted workers restart cold).
    cache_stats: dict = field(default_factory=dict)
    #: master-observed recovery narrative (detections, adoptions, joins).
    fault_events: list = field(default_factory=list)
    #: substrate-injected fault events (crashes, drops) in firing order.
    fault_log: list = field(default_factory=list)

    @property
    def mbytes(self) -> float:
        return self.comm.mbytes_total

    @property
    def cache_hits(self) -> int:
        return sum(h for h, _ in self.cache_stats.values())

    @property
    def cache_misses(self) -> int:
        return sum(m for _, m in self.cache_stats.values())


def collect_cache_stats(run: BackendRun, routing=None) -> dict:
    """Per-logical-worker (hits, misses) from the workers' ``cache_stats()``.

    Works on every substrate: the sim runs workers in-process, the real
    ones ship each worker's counters home (:meth:`P2Worker.final_state`).
    ``routing`` (the master's final logical→host table, when fault
    tolerance ran) pins each logical worker to its authoritative host, so
    stale copies on falsely-declared-dead hosts are never counted; without
    it every hosted shard reports.
    """
    by_rank = {
        proc.rank: proc.cache_stats() for proc in run.procs if hasattr(proc, "cache_stats")
    }
    out: dict = {}
    if routing:
        for logical in sorted(routing):
            hosted = by_rank.get(routing[logical], {})
            if logical in hosted:
                out[logical] = hosted[logical]
        return out
    for rank in sorted(by_rank):
        for virtual_rank in sorted(by_rank[rank]):
            out[virtual_rank] = by_rank[rank][virtual_rank]
    return out


def _launch(
    master, worker_cls, shared: SharedProblem, spares: int, seed: int, backend,
    record_trace: bool = False,
):
    """The tail every front-end shares: ``master`` plus workers
    ``1..p+spares`` on the resolved backend, run to completion."""
    p = master.n_workers
    workers = [worker_cls(rank, shared, p, seed=seed) for rank in range(1, p + spares + 1)]
    bk = resolve_backend(backend, record_trace=record_trace)
    return _result_from_run(bk.run([master, *workers], fault_plan=master.fault_plan))


def _result_from_run(run: BackendRun) -> P2Result:
    """Assemble the shared P2Result artifact from any strategy's run.

    Reads the master's artifacts from the backend's returned process
    state: on multi-process backends the caller's master object was never
    mutated (rank 0 ran in a child process).
    """
    final = run.proc(0)
    ft = final.ft
    return P2Result(
        theory=final.theory,
        epochs=final.epochs,
        seconds=run.seconds,
        comm=run.comm,
        uncovered=max(final.remaining, 0),
        epoch_logs=final.epoch_logs,
        clocks=run.clocks,
        trace=run.trace,
        cache_stats=collect_cache_stats(run, routing=ft.routing if ft is not None else None),
        fault_events=list(final.fault_events),
        fault_log=list(run.fault_log),
    )


def _validate_fault_args(
    algo: str,
    fault_plan: Optional[FaultPlan],
    spares: int,
    p: int,
):
    """Common front-end guards: :func:`repro.run.refusal` for ``p`` and the
    fault-tolerance arguments, then what only a fault plan needs."""
    plan = normalize_plan(fault_plan)
    reason = refusal(algo, p, fault_plan=plan is not None, spares=spares)
    if reason:
        raise ValueError(reason)
    if plan is None:
        return None
    plan.validate_ranks(p, spares)
    return plan


def _check_resume(resume, algo: str, p: int, seed: int) -> None:
    if resume is None:
        return
    if resume.algo != algo:
        raise ValueError(f"checkpoint is for {resume.algo!r}, not {algo!r}")
    if resume.n_workers and resume.n_workers != p:
        raise ValueError(
            f"checkpoint was taken at p={resume.n_workers}; resuming at p={p} "
            "cannot reproduce the run (partitions differ)"
        )
    if resume.seed != seed:
        raise ValueError(f"checkpoint seed {resume.seed} != requested seed {seed}")


def run_p2mdie(
    kb: KnowledgeBase,
    pos: Sequence[Term],
    neg: Sequence[Term],
    modes: ModeSet,
    config: ILPConfig,
    p: int,
    width: Optional[int] = ...,
    seed: int = 0,
    record_trace: bool = False,
    max_epochs: Optional[int] = None,
    backend: Union[Backend, str, None] = None,
    fault_plan: Optional[FaultPlan] = None,
    spares: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_meta: tuple = (),
    resume=None,
) -> P2Result:
    """Run p2-mdie(E+, E-, B, C, p, w) — the paper's Fig. 5 entry point.

    ``width=...`` defaults to ``config.pipeline_width``; pass ``None``
    explicitly for the "nolimit" configuration.
    Workers read their example subsets and the background knowledge from
    the shared filesystem (§4.1), :class:`SharedProblem`.
    ``backend`` selects the execution substrate: a
    :class:`~repro.backend.Backend` instance or a name (``"sim"``,
    ``"local"``, ``"mpi"``); ``None`` means ``SimBackend()``, the paper's
    fabric and cost model (pass ``SimBackend(network=, cost_model=)`` for
    others).  On a real backend ``seconds`` is
    wall-clock time and the learned theory is identical to the sim's for
    the same seed/config (backend parity).

    ``fault_plan`` injects deterministic faults and activates the
    self-healing protocol (an empty plan is a no-op: the run is
    byte-identical to ``fault_plan=None``); ``spares`` provisions idle
    standby hosts ranks ``p+1..p+spares`` for adoption/elastic joins;
    ``checkpoint_dir`` writes a resumable snapshot after every epoch;
    ``resume`` (a loaded :class:`~repro.fault.checkpoint.CheckpointState`)
    continues a run from such a snapshot, reproducing the remaining
    epochs exactly.
    """
    plan = _validate_fault_args("p2mdie", fault_plan, spares, p)
    _check_resume(resume, "p2mdie", p, seed)
    shared = SharedProblem.partitioned(kb, pos, neg, modes, config, p, seed)
    master = P2Master(
        n_workers=p,
        total_pos=len(pos),
        config=config,
        width=width,
        max_epochs=max_epochs,
        seed=seed,
        fault_plan=plan,
        spares=spares,
        checkpoint_dir=checkpoint_dir,
        checkpoint_meta=checkpoint_meta,
        resume=resume,
    )
    return _launch(master, P2Worker, shared, spares, seed, backend, record_trace=record_trace)
