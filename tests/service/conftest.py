"""Shared fixtures for the learning-as-a-service tests."""

import builtins
import json
import os
import pathlib

import pytest

from repro.datasets import make_dataset


@pytest.fixture(scope="session")
def trains():
    return make_dataset("trains", seed=0)


@pytest.fixture(scope="session")
def krki():
    return make_dataset("krki", seed=0)


@pytest.fixture
def registry(tmp_path):
    from repro.service import TheoryRegistry

    return TheoryRegistry(str(tmp_path / "registry"))


@pytest.fixture(scope="session")
def trains_theory():
    """A learned trains theory (sequential mdie, seed 0) for registry/query tests."""
    from repro.service import JobSpec, run_job

    return run_job(JobSpec(dataset="trains", algo="mdie", seed=0))


@pytest.fixture
def drained():
    """``drained(qe, name, examples, **kw)``: a streamed query's merged
    result, once every span's frame was handed over in span order."""

    def run(qe, name, examples, **kwargs):
        frames = []
        result = qe.query(name, examples, on_frame=frames.append, **kwargs)
        assert [f.shard for f in frames] == list(range(result.shards))
        return result

    return run


@pytest.fixture(scope="session")
def parent_cert():
    """A ``.cert`` body as sampled runs once published it beside a theory
    (the retired code-29 witness of ``tests/data/wire_layouts.json``)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "data" / "wire_layouts.json"
    entry = next(e for e in json.loads(path.read_text())["retired"] if e["code"] == 29)
    return bytes.fromhex(entry["hex"])


@pytest.fixture
def opened_paths(monkeypatch):
    """Absolute paths of every file ``open`` is asked for during the test
    (from any thread, so an in-process server's reads count too)."""
    seen: list = []
    real = builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)):
            seen.append(os.path.abspath(os.fsdecode(file)))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return seen
