"""JobSpec validation/round-trips and run_job parity with direct runs."""

import pytest

from repro.ilp import mdie
from repro.parallel import run_p2mdie, wire
from repro.service import JobRecord, JobSpec, run_job
from repro.service.jobs import WIDTH_DEFAULT, WIDTH_NOLIMIT


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(dataset="trains")
        assert spec.algo == "mdie"
        assert spec.backend == "sim"
        assert spec.width == WIDTH_DEFAULT
        assert spec.checkpointable

    @pytest.mark.parametrize(
        "kw",
        [
            {"dataset": "no_such_dataset"},
            {"dataset": "trains", "algo": "no_such_algo"},
            {"dataset": "trains", "backend": "no_such_backend"},
            {"dataset": "trains", "scale": "huge"},
            {"dataset": "trains", "algo": "p2mdie", "p": 0},
            {"dataset": "trains", "width": 0},
            {"dataset": "trains", "max_epochs": 0},
            # independent writes no checkpoints / has a single merge epoch
            {"dataset": "trains", "algo": "independent", "preemptible": True},
            {"dataset": "trains", "algo": "independent", "max_epochs": 3},
            # register_as must satisfy the registry naming rule up front,
            # not after the learning run completes
            {"dataset": "trains", "register_as": "my theory"},
            {"dataset": "trains", "register_as": ".hidden"},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            JobSpec(**kw)

    def test_mpi_backend_is_a_valid_spec(self):
        # The scheduler pool may host MPI jobs (rank 0 of an mpiexec
        # launch); validity is a spec question, availability a run one.
        spec = JobSpec(dataset="trains", algo="p2mdie", p=2, backend="mpi")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = JobSpec(
            dataset="krki", algo="p2mdie", p=3, width=WIDTH_NOLIMIT, seed=7,
            backend="local", priority=-2, max_epochs=5, preemptible=True,
            register_as="krki-prod",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job-spec fields"):
            JobSpec.from_dict({"dataset": "trains", "bogus": 1})
        with pytest.raises(ValueError, match="dataset"):
            JobSpec.from_dict({})

    def test_wire_round_trip(self):
        spec = JobSpec(
            dataset="mesh", algo="covpar", p=4, seed=3, backend="local",
            priority=9, preemptible=True, register_as="mesh-v2",
        )
        rec = JobRecord(
            job_id="job-0042", seq=42, spec=spec, state="running",
            epochs_done=3, error="",
        )
        data = wire.encode_always(rec)
        assert wire.decode(data) == rec

    def test_wire_bytes_deterministic(self):
        rec = JobRecord(
            job_id="job-0001", seq=1,
            spec=JobSpec(dataset="trains", algo="p2mdie", p=2),
            state="queued",
        )
        assert wire.encode_always(rec) == wire.encode_always(rec)


class TestRunJob:
    def test_mdie_parity_with_direct_run(self, trains):
        outcome = run_job(JobSpec(dataset="trains", algo="mdie", seed=0))
        direct = mdie(
            trains.kb, trains.pos, trains.neg, trains.modes, trains.config, seed=0
        )
        assert list(outcome.theory) == list(direct.theory)
        assert outcome.epochs == direct.epochs
        assert outcome.uncovered == direct.uncovered
        assert outcome.ops == direct.ops
        assert outcome.finished
        assert outcome.train_accuracy == pytest.approx(100.0)
        assert outcome.config_sig == trains.config.signature()

    def test_p2mdie_parity_with_direct_run(self, trains):
        spec = JobSpec(dataset="trains", algo="p2mdie", p=2, seed=0)
        outcome = run_job(spec)
        direct = run_p2mdie(
            trains.kb, trains.pos, trains.neg, trains.modes, trains.config,
            p=2, seed=0,
        )
        assert list(outcome.theory) == list(direct.theory)
        assert outcome.epochs == direct.epochs
        assert outcome.seconds == direct.seconds
        assert outcome.mbytes == direct.mbytes

    def test_independent_runs(self):
        outcome = run_job(JobSpec(dataset="trains", algo="independent", p=2, seed=0))
        assert len(outcome.theory) >= 1
        assert outcome.finished

    def test_epoch_cap_marks_unfinished(self, krki):
        capped = run_job(JobSpec(dataset="krki", algo="mdie", seed=0, max_epochs=1))
        full = run_job(JobSpec(dataset="krki", algo="mdie", seed=0))
        assert full.epochs > 1
        assert capped.epochs == 1
        assert not capped.finished
        assert full.finished

    def test_summary_is_plain_data(self, trains_theory):
        import json

        summary = trains_theory.summary()
        json.dumps(summary)  # must be JSON-serializable as-is
        assert summary["rules"] == len(trains_theory.theory)
        assert "eastbound" in summary["theory"]
