"""The activity trace as the CLI prints and exports it, frozen.

``tests/data/trace_witness.json`` holds two outputs of the simulator
backend, whose virtual clock makes both the same on every run and under
every hash seed:

* ``trace_stdout``: the lines ``repro trace trains --p 2 --trace-out F``
  prints (the Gantt rows, the busy fractions and the stage summary), with
  the file name in the last line replaced by ``<path>``;
* ``learn_trace_out``: the lines of the JSONL file ``repro learn krki
  --p 2 --trace-out F`` writes, one span per line.

A change to how a trace is recorded, rendered or exported shows here as
a diff of the file.
"""

import json
from pathlib import Path

from repro.cli import main

WITNESS = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "trace_witness.json").read_text()
)


def test_trace_stdout_matches_witness(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "trains", "--p", "2", "--trace-out", str(out_file)]) == 0
    lines = capsys.readouterr().out.replace(str(out_file), "<path>").splitlines()
    assert lines == WITNESS["trace_stdout"]


def test_learn_trace_out_matches_witness(tmp_path, capsys):
    out_file = tmp_path / "learn.jsonl"
    assert main(["learn", "krki", "--p", "2", "--trace-out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text().splitlines() == WITNESS["learn_trace_out"]
