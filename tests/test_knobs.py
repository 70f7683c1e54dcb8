"""The knob count: environment names and engine parameters.

Every ``REPRO_*`` name the program reads and every ``Engine`` parameter is
a way to run it that the tests must cover.  Adding one must be a decision
made here, not a side effect.
"""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from repro.logic.engine import Engine
from repro.logic.knowledge import KnowledgeBase

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


def test_the_program_reads_four_environment_names():
    assert env_names_in_source() == {"REPRO_LOG", "REPRO_LOG_LEVEL", "REPRO_TRACE", "REPRO_LOCAL_TIMEOUT"}


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
