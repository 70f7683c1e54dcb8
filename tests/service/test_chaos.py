"""Chaos acceptance: the full plan survives with answers bit-identical.

This is the issue's acceptance scenario end to end: a served instance
under connection resets, engine-lease failures, a scheduler-worker
crash and a torn durable write, drained with the graceful path at the
tail — zero duplicated jobs, zero corrupted records after restart, and
coverage bitsets identical to the fault-free leg.  Plus the real-signal
variant: ``repro serve`` in a subprocess, SIGTERM, clean exit.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.experiments.chaos import chaos_passed, run_chaos
from repro.fault.service import ServiceFaultPlan

REPO = pathlib.Path(__file__).resolve().parents[2]
PLAN = REPO / "examples" / "faultplans" / "service_chaos.json"


class TestChaosAcceptance:
    def test_repo_plan_all_invariants_hold(self, tmp_path):
        plan = ServiceFaultPlan.load(str(PLAN))
        report = run_chaos(
            plan, requests=10, batch=30, rate=60.0, n_jobs=2,
            root=str(tmp_path),
        )
        inv = report["invariants"]
        assert inv["parity"], "chaos changed a coverage bitset"
        assert inv["duplicated_jobs"] == 0, "a retried submit duplicated a job"
        assert inv["corrupt_records"] == 0, "a torn write corrupted a record"
        assert inv["load_errors"] == 0, "client retries did not absorb the chaos"
        assert inv["jobs_done"], "a job was lost to the injected faults"
        assert chaos_passed(report)
        # The plan really fired: every event class shows up in the log.
        kinds = {line.split("] ", 1)[1].split(" ", 1)[0] for line in report["injected"]}
        assert kinds == {"reset", "lease", "slot_crash", "persist"}


class TestSigtermDrain:
    def test_serve_subprocess_drains_on_sigterm(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--slots", "1",
                "--state-dir", str(tmp_path / "jobs"),
                "--registry-dir", str(tmp_path / "registry"),
            ],
            env=env, cwd=str(REPO),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "% serving on" in line, line
            port = int(line.split(":")[1].split()[0])
            from repro.service import JobSpec
            from repro.service import ServiceClient

            with ServiceClient(port=port) as c:
                job = c.submit(JobSpec(dataset="trains", algo="mdie"))
                c.wait(job, timeout=120)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            assert rc == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        # The drained state survives: a fresh service sees the job done.
        from repro.service import Service

        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"))
        try:
            jobs = svc.handle({"op": "jobs"})["jobs"]
            assert [j["state"] for j in jobs] == ["done"]
        finally:
            svc.close()

    def test_drain_parks_preemptible_running_job(self, tmp_path):
        """A slow preemptible job at SIGTERM time parks, and is recoverable."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--slots", "1",
                "--state-dir", str(tmp_path / "jobs"),
                "--registry-dir", str(tmp_path / "registry"),
            ],
            env=env, cwd=str(REPO),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            port = int(line.split(":")[1].split()[0])
            from repro.service import JobSpec
            from repro.service import ServiceClient

            with ServiceClient(port=port) as c:
                c.submit(
                    JobSpec(dataset="krki", algo="mdie", preemptible=True)
                )
                # Give the slot a moment to pick the job up, then drain
                # mid-run: the job must park, not finish and not vanish.
                time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            assert rc == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        from repro.service import Service

        svc = Service(slots=1, state_dir=str(tmp_path / "jobs"))
        try:
            job = svc.handle({"op": "jobs"})["jobs"][0]["job"]
            final = svc.handle({"op": "wait", "job": job, "timeout": 180})
            assert final["ok"] and final["state"] == "done"
        finally:
            svc.close()
