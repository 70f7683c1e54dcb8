"""P²-MDIE: the paper's pipelined data-parallel covering algorithm,
plus the related-work baseline (data-parallel coverage testing)."""

from repro.parallel.coverage_parallel import CoverageParallelMaster, run_coverage_parallel
from repro.parallel.independent import IndependentMaster, IndependentWorker, run_independent
from repro.parallel.master import EpochLog, Master, P2Master
from repro.parallel.messages import (
    AdoptWorker,
    EvaluateRequest,
    EvaluateResult,
    LoadExamples,
    MarkCovered,
    Ping,
    PipelineRules,
    PipelineTask,
    Pong,
    RuleStats,
    StartPipeline,
    Stop,
    UpdateRouting,
)
from repro.parallel.p2mdie import (
    P2Result,
    SharedProblem,
    WorkerProblem,
    collect_cache_stats,
    run_p2mdie,
    sequential_seconds,
)
from repro.parallel.partition import Partition, partition_examples
from repro.parallel.worker import MASTER_RANK, P2Worker

__all__ = [
    "CoverageParallelMaster",
    "run_coverage_parallel",
    "IndependentMaster",
    "IndependentWorker",
    "run_independent",
    "EpochLog",
    "Master",
    "P2Master",
    "AdoptWorker",
    "EvaluateRequest",
    "EvaluateResult",
    "LoadExamples",
    "MarkCovered",
    "Ping",
    "PipelineRules",
    "PipelineTask",
    "Pong",
    "RuleStats",
    "StartPipeline",
    "Stop",
    "UpdateRouting",
    "collect_cache_stats",
    "P2Result",
    "SharedProblem",
    "WorkerProblem",
    "run_p2mdie",
    "sequential_seconds",
    "Partition",
    "partition_examples",
    "MASTER_RANK",
    "P2Worker",
]
