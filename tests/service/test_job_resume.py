"""``repro resume`` continues a checkpoint that a service job wrote.

Jobs and the CLI write one checkpoint meta: the width is ``"nolimit"`` or
a number of rules.  Job checkpoints written before that spelled the
width ``"-1"`` (the config's) or ``"-2"`` ("nolimit"), and those still
resume.
"""

import dataclasses
import os

import pytest

from repro.cli import main
from repro.datasets import make_dataset
from repro.fault.checkpoint import load_checkpoint, save_checkpoint
from repro.logic.io import theory_to_prolog
from repro.service.jobs import WIDTH_DEFAULT, WIDTH_NOLIMIT, JobSpec, run_job


class TestResumeJobCheckpoint:
    """``repro resume`` continues a checkpoint that ``run_job`` wrote."""

    @staticmethod
    def _job_checkpoint(tmp_path, width):
        spec = JobSpec("krki", "p2mdie", p=2, width=width)
        d = str(tmp_path / "ck")
        partial = run_job(spec, checkpoint_dir=d, max_epochs=2)
        assert partial.epochs == 2 and not partial.finished
        return os.path.join(d, "epoch_0002.ckpt"), run_job(spec)

    @staticmethod
    def _clauses(text):
        return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")]

    @pytest.mark.parametrize("width", [WIDTH_DEFAULT, WIDTH_NOLIMIT], ids=["default", "nolimit"])
    def test_resume_reproduces_the_one_shot_job(self, width, tmp_path, capsys):
        path, one_shot = self._job_checkpoint(tmp_path, width)
        assert main(["resume", path]) == 0
        out = capsys.readouterr().out
        assert self._clauses(out) == self._clauses(theory_to_prolog(one_shot.theory))

    def test_jobs_write_the_width_the_cli_writes(self, tmp_path):
        path, _ = self._job_checkpoint(tmp_path, WIDTH_NOLIMIT)
        assert load_checkpoint(path).meta_dict()["width"] == "nolimit"
        path, _ = self._job_checkpoint(tmp_path / "d", WIDTH_DEFAULT)
        width = make_dataset("krki").config.pipeline_width
        assert load_checkpoint(path).meta_dict()["width"] == str(width)

    def test_older_job_width_spelling_resumes(self, tmp_path, capsys):
        # Job checkpoints written before the meta was shared spell the
        # config's width "-1"; service state dirs still hold them.
        path, one_shot = self._job_checkpoint(tmp_path, WIDTH_DEFAULT)
        state = load_checkpoint(path)
        meta = tuple((k, "-1" if k == "width" else v) for k, v in state.meta)
        old = save_checkpoint(str(tmp_path / "old.ckpt"), dataclasses.replace(state, meta=meta))
        assert main(["resume", old]) == 0
        out = capsys.readouterr().out
        assert self._clauses(out) == self._clauses(theory_to_prolog(one_shot.theory))
