"""Backend protocol, registry, and sim-backend equivalence tests."""

import pytest

from repro.backend import (
    Backend,
    BackendRun,
    BackendUnavailableError,
    LocalProcessBackend,
    SimBackend,
    make_backend,
    resolve_backend,
)
from repro.cluster.network import FAST_ETHERNET
from repro.cluster.process import SimProcess
from repro.parallel.messages import Ping, Pong


class Pinger(SimProcess):
    def run(self, ctx):
        yield ctx.send(1, Ping(token=7), tag="t")
        msg = yield ctx.recv(src=1)
        self.got = msg.payload
        yield ctx.compute(10, label="work")


class Ponger(SimProcess):
    def run(self, ctx):
        msg = yield ctx.recv(src=0)
        yield ctx.send(0, Pong(rank=self.rank, token=msg.payload.token), tag="t")


class TestRegistry:
    def test_make_backend_names(self):
        assert isinstance(make_backend("sim"), SimBackend)
        assert isinstance(make_backend("local"), LocalProcessBackend)

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")

    def test_mpi_unavailable(self):
        try:
            import mpi4py  # noqa: F401

            pytest.skip("mpi4py installed on this host")
        except ImportError:
            pass
        with pytest.raises(BackendUnavailableError, match="mpi4py"):
            make_backend("mpi")

    def test_resolve_backend_passthrough(self):
        bk = LocalProcessBackend()
        assert resolve_backend(bk) is bk
        assert isinstance(resolve_backend(None), SimBackend)
        assert isinstance(resolve_backend("sim"), SimBackend)

    def test_resolve_backend_refuses_a_trace_its_instance_cannot_record(self):
        # A ready instance is used as it is, so a trace it cannot record
        # is refused rather than returned empty.
        with pytest.raises(ValueError, match=r"SimBackend\(record_trace=True\)"):
            resolve_backend(SimBackend(), record_trace=True)
        bk = SimBackend(record_trace=True)
        assert resolve_backend(bk, record_trace=True) is bk

    def test_run_with_a_sim_instance_records_the_trace_or_refuses(self):
        from repro.datasets import make_dataset
        from repro.run import run

        ds = make_dataset("trains")
        with pytest.raises(ValueError, match="record_trace"):
            run(ds, "p2mdie", p=2, backend=SimBackend(), record_trace=True)
        by_name = run(ds, "p2mdie", p=2, backend="sim", record_trace=True).trace
        by_instance = run(
            ds, "p2mdie", p=2, backend=SimBackend(record_trace=True), record_trace=True
        ).trace
        assert len(by_name) == 16
        assert by_instance == by_name

    def test_resolve_backend_forwards_sim_options(self):
        # A name builds the backend with its defaults; another fabric is
        # a SimBackend(network=...) instance, passed as it is.
        bk = resolve_backend("sim", record_trace=True)
        assert bk.network is FAST_ETHERNET
        assert bk.record_trace is True


class TestSimBackend:
    def test_procs_are_inputs(self):
        ping, pong = Pinger(0), Ponger(1)
        run = SimBackend().run([ping, pong])
        assert isinstance(run, BackendRun)
        assert run.proc(0) is ping
        assert run.proc(1) is pong
        assert ping.got == Pong(rank=1, token=7)

    def test_proc_unknown_rank(self):
        run = SimBackend().run([Pinger(0), Ponger(1)])
        with pytest.raises(KeyError):
            run.proc(7)

    def test_is_backend(self):
        assert isinstance(SimBackend(), Backend)


class TestContextProtocol:
    def test_local_context_surface(self):
        # The local context is a ProcContext; checked end-to-end by the
        # transport tests (it needs live pipes to build).
        from repro.backend.local import LocalContext
        from repro.cluster.process import ProcContext

        assert issubclass(LocalContext, ProcContext)
        for attr in ("send", "bcast", "recv", "compute"):
            assert callable(getattr(LocalContext, attr))
