"""P²-MDIE: the paper's pipelined data-parallel covering algorithm,
plus the related-work baseline (data-parallel coverage testing).

Each name below is imported from its submodule when it is first read,
so ``from repro.parallel import wire`` loads the codec and not the
learner (see :mod:`repro.util.lazy`).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    ".coverage_parallel": ("CoverageParallelMaster", "run_coverage_parallel"),
    ".independent": ("IndependentMaster", "IndependentWorker", "run_independent"),
    ".master": ("EpochLog", "Master", "P2Master"),
    ".messages": (
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
    ),
    ".p2mdie": (
        "collect_cache_stats",
        "P2Result",
        "SharedProblem",
        "WorkerProblem",
        "run_p2mdie",
        "sequential_seconds",
    ),
    ".partition": ("Partition", "partition_examples"),
    ".worker": ("MASTER_RANK", "P2Worker"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
