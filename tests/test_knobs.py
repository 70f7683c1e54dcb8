"""The knob count: environment names, engine and P²-MDIE parameters.

Every ``REPRO_*`` name the program reads and every ``Engine`` /
``run_p2mdie`` / ``P2Master`` parameter is a way to run it that the tests
must cover.  Adding one must be a decision made here, not a side effect.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro
import repro.cluster
from repro.cluster.costmodel import CostModel, OpsCostModel
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase
from repro.parallel.master import P2Master
from repro.parallel.p2mdie import run_p2mdie

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
        "kb", "pos", "neg", "modes", "config", "p", "width", "seed", "network", "cost_model",
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
