"""Tables 2 and 3 set p = 1 beside p > 1, so they need one clock.

On a real backend the parallel cells run in wall seconds while the
sequential baseline stays in virtual seconds; a speed-up across the two
is meaningless, and the tables refuse it.  The other tables have no
seconds and still render.
"""

import pytest

from repro.cli import main
from repro.experiments.report import speedup_summary
from repro.experiments.runner import MatrixResult, RunRecord
from repro.experiments.tables import table2_speedup, table3_times, table4_communication


def _record(p, clock, seconds):
    return RunRecord(
        dataset="carcinogenesis", width=None if p == 1 else 10, p=p, fold=0,
        seconds=seconds, mbytes=0.0 if p == 1 else 0.02, epochs=3, test_accuracy=70.0,
        theory_size=3, uncovered=0, clock=clock,
    )


class TestOneClockPerTable:
    def test_speedup_and_times_refuse_two_clocks(self):
        matrix = MatrixResult([_record(1, "virtual", 2.5), _record(2, "wall", 0.1)])
        for render in (table2_speedup, table3_times, speedup_summary):
            with pytest.raises(ValueError, match="virtual.*wall"):
                render(matrix, ps=(2,))
        assert "0.02" in table4_communication(matrix, ps=(2,))

    def test_one_clock_renders(self):
        matrix = MatrixResult([_record(1, "virtual", 2.5), _record(2, "virtual", 1.25)])
        assert "2.00" in table2_speedup(matrix, ps=(2,))

    def test_local_tables_refuse_speedup_and_print_the_rest(self, capsys):
        argv = ["tables", "--backend", "local", "--ps", "2", "--datasets", "carcinogenesis",
                "--folds", "2", "--which"]
        assert main([*argv, "2"]) == 2
        captured = capsys.readouterr()
        assert "Table 2" not in captured.out
        assert "virtual seconds" in captured.err and "wall seconds" in captured.err
        assert main([*argv, "1,4,5,6"]) == 0
        out = capsys.readouterr().out
        assert all(f"Table {n}." in out for n in (1, 4, 5, 6))
