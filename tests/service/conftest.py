"""Shared fixtures for the learning-as-a-service tests."""

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
    """``drained(qe, name, examples, **kw)``: a stream's merged result once
    every frame was pulled — how a k-span query is run in process."""

    def run(qe, name, examples, **kwargs):
        stream = qe.query_stream(name, examples, **kwargs)
        for _ in stream.frames():
            pass
        return stream.result()

    return run
