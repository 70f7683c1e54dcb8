"""Cross-backend fault-tolerance parity matrix (sim / local / mpi).

One scenario — the acceptance WorkerCrash + Straggler plan on krki —
must recover to the bit-identical theory and epoch log of the fault-free
sim run on every substrate.  Sim and local legs run in-process; the MPI
legs shell out to an ``mpiexec`` SPMD launch of ``mpi_driver.py`` and
are skipped — never failed — on hosts without mpi4py/mpiexec (the CI
``mpi-smoke`` job provides both).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers_fault import log_tuples, run_args
from repro.backend import LocalProcessBackend, SimBackend
from repro.backend.mpi import mpi_available
from repro.fault.plan import FaultPlan, Straggler, WorkerCrash
from repro.parallel import run_p2mdie

TIMEOUT = 2.0

#: the acceptance scenario: crash mid-pipeline + a 2x straggler, krki p=3.
PLAN = FaultPlan(
    crashes=(WorkerCrash(rank=2, on_recv=2, tag="start_pipeline"),),
    stragglers=(Straggler(rank=1, factor=2.0),),
    timeout=TIMEOUT,
)

needs_mpi = pytest.mark.skipif(
    not mpi_available() or shutil.which("mpiexec") is None,
    reason="mpi4py / mpiexec not available",
)


@pytest.fixture(scope="module")
def base(krki):
    """Fault-free sim baseline every substrate must reproduce."""
    return run_p2mdie(*run_args(krki), p=3, width=10, seed=0)


def _expected(base) -> dict:
    """The baseline in the JSON shape mpi_driver.py reports."""
    return {
        "theory": [str(r) for r in base.theory],
        "log": [
            [log.epoch, log.bag_size, [str(c) for c in log.accepted], log.pos_covered]
            for log in base.epoch_logs
        ],
        "comm": {"messages": base.comm.messages, "bytes": base.comm.bytes_total},
    }


class TestMatrixInProcess:
    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_crash_straggler_parity(self, krki, base, backend):
        bk = SimBackend() if backend == "sim" else LocalProcessBackend(timeout=300.0)
        r = run_p2mdie(*run_args(krki), p=3, width=10, seed=0, fault_plan=PLAN, backend=bk)
        assert r.theory == base.theory
        assert log_tuples(r) == log_tuples(base)
        assert any(f.kind == "crash" and f.rank == 2 for f in r.fault_log)


@needs_mpi
class TestMatrixMPI:
    def _launch(self, tmp_path, n, extra) -> dict:
        driver = Path(__file__).with_name("mpi_driver.py")
        out = tmp_path / f"mpi-{n}-{len(list(tmp_path.iterdir()))}.json"
        cmd = ["mpiexec", "-n", str(n), sys.executable, str(driver), "--out", str(out), *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}"
        return json.loads(out.read_text())

    def test_fault_free_parity(self, base, tmp_path):
        got = self._launch(tmp_path, 4, ["--p", "3"])
        exp = _expected(base)
        assert got["theory"] == exp["theory"]
        assert got["log"] == exp["log"]
        # what went on the communicator is what CommStats counted, and it
        # is the simulator's message and byte count (Table 4 comparability)
        assert got["comm"] == exp["comm"]

    def test_crash_straggler_recovery(self, base, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(PLAN.to_json())
        got = self._launch(tmp_path, 4, ["--p", "3", "--plan", str(plan_file)])
        exp = _expected(base)
        assert got["theory"] == exp["theory"]
        assert got["log"] == exp["log"]
        assert ["crash", 2] in got["fault_log"]
        assert any("declared dead" in ev for ev in got["fault_events"])

    def test_crash_with_spare_adoption(self, base, tmp_path):
        plan = FaultPlan(
            crashes=(WorkerCrash(rank=3, on_recv=1, tag="evaluate"),), timeout=TIMEOUT
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        got = self._launch(tmp_path, 5, ["--p", "3", "--spares", "1", "--plan", str(plan_file)])
        assert got["theory"] == _expected(base)["theory"]
        assert any("adopted by host 4" in ev for ev in got["fault_events"])

    def test_resume_on_mpi(self, base, tmp_path):
        ck = tmp_path / "ckpt"
        self._launch(tmp_path, 4, ["--p", "3", "--checkpoint-dir", str(ck)])
        ckpts = sorted(ck.glob("*.ckpt"))
        assert ckpts, "checkpointed MPI run wrote no epoch snapshots"
        got = self._launch(tmp_path, 4, ["--p", "3", "--resume-from", str(ckpts[0])])
        assert got["theory"] == _expected(base)["theory"]
