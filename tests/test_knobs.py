"""The knob count: environment names, engine, front-end and backend parameters.

Every ``REPRO_*`` name the program reads and every ``Engine`` /
``run_p2mdie`` / ``P2Master`` parameter is a way to run it that the tests
must cover, and so is every parameter of the run front doors and the
backend builders.  Adding one must be a decision made here, not a side
effect.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro
import repro.cluster
from repro.backend import make_backend, resolve_backend
from repro.backend.sim import SimBackend
from repro.cluster.costmodel import CostModel, OpsCostModel
from repro.experiments.runner import run_cell, run_matrix
from repro.ilp.coverage import theory_covered_bits
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.parallel.coverage_parallel import run_coverage_parallel
from repro.parallel.independent import run_independent
from repro.parallel.master import P2Master
from repro.parallel.p2mdie import run_p2mdie
from repro.run import run
from repro.service import query as query_module
from repro.service.query import QueryEngine
from repro.service.registry import TheoryRegistry
from repro.service.server import Service

SRC = pathlib.Path(repro.__file__).resolve().parent
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def env_names_in_source() -> set[str]:
    """Every string literal in ``src/repro`` that is a whole ``REPRO_*`` name."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and ENV_NAME.fullmatch(node.value):
                names.add(node.value)
    return names


def test_the_program_reads_three_environment_names():
    assert env_names_in_source() == {"REPRO_LOG", "REPRO_LOG_LEVEL", "REPRO_LOCAL_TIMEOUT"}


def test_the_engine_has_four_parameters():
    """``kernel`` only accepts None (ROADMAP 1(b) deletes it); ``memo``
    off is the memo table's reference in tests."""
    params = list(inspect.signature(Engine.__init__).parameters)
    assert params == ["self", "kb", "budget", "kernel", "memo"]


def test_the_engine_refuses_a_kernel():
    kb = KnowledgeBase()
    for kernel in ("legacy", "new"):
        with pytest.raises(ValueError, match="retired"):
            Engine(kb, kernel=kernel)
    assert Engine(kb, kernel=None).memo_enabled


def test_p2mdie_has_one_data_model_and_one_cost_model():
    """Workers read their data from the shared filesystem, learning stops
    after ``P2Master.STALL_LIMIT`` empty epochs, and a slow rank is a
    fault-plan straggler: none of these is a parameter."""
    assert list(inspect.signature(run_p2mdie).parameters) == [
        "kb", "pos", "neg", "modes", "config", "p", "width", "seed",
        "record_trace", "max_epochs", "backend", "fault_plan", "spares", "checkpoint_dir",
        "checkpoint_meta", "resume",
    ]
    assert list(inspect.signature(P2Master.__init__).parameters) == [
        "self", "n_workers", "total_pos", "config", "width", "max_epochs", "seed",
        "fault_plan", "spares", "checkpoint_dir", "checkpoint_meta", "resume",
    ]
    exported = {
        obj for obj in vars(repro.cluster).values()
        if isinstance(obj, type) and issubclass(obj, CostModel) and obj is not CostModel
    }
    assert exported == {OpsCostModel}


def params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_front_doors_take_no_fabric_or_cost_model():
    """A run on another simulated fabric or cost model passes
    ``backend=SimBackend(network=, cost_model=)``; no front door
    threads either model through."""
    assert params(run) == [
        "ds", "algo", "p", "width", "seed", "backend", "scale", "max_epochs", "batch_size",
        "record_trace", "fault_plan", "spares", "checkpoint_dir", "resume",
    ]
    assert params(run_cell) == ["ds", "fold", "p", "width", "seed", "max_epochs", "backend"]
    assert params(run_matrix) == [
        "dataset_names", "widths", "ps", "k_folds", "scale", "seed", "include_sequential",
        "max_epochs", "backend",
    ]
    assert params(run_coverage_parallel) == [
        "kb", "pos", "neg", "modes", "config", "p", "batch_size", "seed", "max_epochs",
        "backend", "fault_plan", "spares", "checkpoint_dir", "checkpoint_meta", "resume",
    ]
    assert params(run_independent) == [
        "kb", "pos", "neg", "modes", "config", "p", "width", "seed", "backend", "fault_plan",
        "spares",
    ]


def test_backend_builders_take_only_a_trace_flag():
    assert params(make_backend) == ["name", "record_trace"]
    assert params(resolve_backend) == ["backend", "record_trace"]
    assert params(SimBackend.__init__) == ["self", "network", "cost_model", "record_trace"]


def _functions_with(path: pathlib.Path, wanted: set, prefix: str = "", node=None) -> list[str]:
    """Qualified names of the functions in ``path`` with a parameter in ``wanted``."""
    node = ast.parse(path.read_text(), filename=str(path)) if node is None else node
    found = []
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{prefix}{child.name}."
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            if wanted & {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}:
                found.append(f"{prefix}{child.name}")
        found += _functions_with(path, wanted, inner, child)
    return found


def test_only_the_sim_backend_sets_the_fabric_and_cost_model():
    files = [SRC / "run.py", SRC / "experiments" / "runner.py"]
    files += sorted((SRC / "parallel").glob("*.py")) + sorted((SRC / "backend").glob("*.py"))
    found = {
        f"{path.relative_to(SRC)}:{name}"
        for path in files
        for name in _functions_with(path, {"network", "cost_model"})
    }
    assert found == {"backend/sim.py:SimBackend.__init__"}


def test_the_fault_plan_format_is_written_once():
    """Run and service plans share one codec (``fault.plan.PlanFormat``):
    each of its functions has one definition across both plan modules."""
    codec = {"to_json", "from_json", "load", "save", "empty", "replace", "normalize_plan"}
    defined = [
        node.name
        for path in (SRC / "fault" / "plan.py", SRC / "fault" / "service.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and (node.name in codec or "normalize" in node.name)
    ]
    assert sorted(defined) == sorted(codec)


def test_the_registry_has_no_cache_switch():
    """A theory's listing is cached under one ``stat`` of its directory
    whatever the caller says: there is no parameter to turn it off."""
    params = list(inspect.signature(TheoryRegistry.__init__).parameters)
    assert params == ["self", "root", "fault_injector"]


def test_a_plain_query_is_the_one_span_case_of_the_stream():
    """One evaluation loop over ``shard_spans`` answers every query, plain
    or streamed; no stream object and no micro-batch parameter is left."""
    query_params = ["name", "examples", "version", "shards", "deadline", "on_frame"]
    assert params(QueryEngine.query) == ["self", *query_params]
    assert params(Service.query_result) == ["self", *query_params]
    assert params(theory_covered_bits) == ["engine", "clauses", "examples"]
    assert not hasattr(query_module, "QueryStream")
    assert not hasattr(QueryEngine, "query_stream")
    files = sorted((SRC / "service").glob("*.py")) + [SRC / "ilp" / "coverage.py"]
    loops = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "shard_spans"
    ]
    assert len(loops) == 1 and loops[0].startswith("service/query.py:"), loops
    assert not [p for p in SRC.rglob("*.py") if "micro_batch" in p.read_text()]
