"""Tests for the pipeline trace rendering (Figs. 3-4 reproduction)."""

import pytest

from repro.experiments.trace import _char_for, occupancy, render_gantt, stage_summary
from repro.obs.span import Span


class TestRenderGantt:
    def test_empty(self):
        assert render_gantt([]) == "(empty trace)"

    def test_single_interval(self):
        out = render_gantt([Span(1, "search(s1)", 0.0, 1.0)], width=10)
        assert out == "rank 1 |1111111111|"

    def test_stage_chars(self):
        out = render_gantt(
            [Span(1, "search(s2)", 0.0, 0.5), Span(1, "evaluate", 0.5, 1.0)], width=10
        )
        assert "2" in out and "e" in out

    def test_idle_shown_as_dots(self):
        out = render_gantt([Span(1, "saturate", 0.5, 1.0)], width=10)
        row = out.split("|")[1]
        assert row.startswith(".")
        assert row.endswith("s")

    def test_multiple_ranks_sorted(self):
        out = render_gantt([Span(2, "evaluate", 0, 1), Span(0, "aggregate", 0, 1)], width=4)
        lines = out.splitlines()
        assert lines[0].startswith("rank 0")
        assert lines[1].startswith("rank 2")

    def test_fixed_t_end(self):
        out = render_gantt([Span(1, "evaluate", 0.0, 1.0)], width=10, t_end=2.0)
        row = out.split("|")[1]
        assert row == "eeeee....."


class TestCharFor:
    def test_digits_one_through_nine(self):
        for k in range(1, 10):
            assert _char_for(f"search(s{k})") == str(k)

    def test_deep_stages_use_base36_letters(self):
        # Regression: stages past s9 used to collapse onto the *last*
        # digit of the label ("search(s10)" -> "0", same as "s20", "s30").
        assert _char_for("search(s10)") == "A"
        assert _char_for("search(s35)") == "Z"

    def test_stages_stay_distinct_through_s35(self):
        chars = [_char_for(f"search(s{k})") for k in range(1, 36)]
        assert len(set(chars)) == 35

    def test_overflow_past_s35(self):
        assert _char_for("search(s36)") == "+"
        assert _char_for("search(s100)") == "+"

    def test_malformed_search_label_falls_back(self):
        assert _char_for("search(sX)") == "c"

    def test_named_stages(self):
        assert _char_for("gather") == "g"
        assert _char_for("recover") == "r"
        assert _char_for("local_mdie") == "w"
        assert _char_for("totally_unknown") == "c"

    def test_deep_stage_renders_distinctly(self):
        out = render_gantt(
            [Span(1, "search(s10)", 0.0, 0.5), Span(1, "search(s20)", 0.5, 1.0)],
            width=10,
        )
        row = out.split("|")[1]
        assert "A" in row and "K" in row and "0" not in row


class TestOccupancy:
    def test_fractions(self):
        occ = occupancy([Span(1, "a", 0, 2), Span(2, "b", 0, 1)], makespan=2.0)
        assert occ == {1: 1.0, 2: 0.5}

    def test_invalid_makespan(self):
        with pytest.raises(ValueError):
            occupancy([], makespan=0.0)


class TestStageSummary:
    def test_aggregation(self):
        trace = [
            Span(1, "search(s1)", 0, 1),
            Span(2, "search(s1)", 1, 3),
            Span(1, "evaluate", 3, 4),
        ]
        stats = {s.label: s for s in stage_summary(trace)}
        assert stats["search(s1)"].count == 2
        assert stats["search(s1)"].total_seconds == 3.0
        assert stats["evaluate"].count == 1


class TestOnRealRun:
    def test_p2mdie_trace_renders(self):
        from repro.datasets import make_dataset
        from repro.parallel.p2mdie import run_p2mdie

        ds = make_dataset("trains", seed=4, scale="small")
        res = run_p2mdie(
            ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=3, seed=4, record_trace=True, max_epochs=1
        )
        out = render_gantt(res.trace, width=60)
        assert "rank 1" in out and "rank 3" in out
        occ = occupancy(res.trace, res.seconds)
        assert all(0 <= v <= 1.0 for v in occ.values())
        # pipeline stages 1..3 all appear somewhere in the trace
        labels = {s.name for s in res.trace}
        assert {"search(s1)", "search(s2)", "search(s3)"} <= labels

    def test_local_backend_occupancy_and_stage_summary(self):
        # Spans recorded by real child *processes* must survive the wire
        # trip home (SpanBatch, code 28) and feed the same analysis the
        # sim backend gets.
        from repro.datasets import make_dataset
        from repro.parallel.p2mdie import run_p2mdie

        ds = make_dataset("trains", seed=1, scale="small")
        res = run_p2mdie(
            ds.kb,
            ds.pos,
            ds.neg,
            ds.modes,
            ds.config,
            p=2,
            seed=1,
            backend="local",
            record_trace=True,
            max_epochs=1,
        )
        assert res.trace, "local backend shipped no spans to rank 0"
        assert {iv.rank for iv in res.trace} == {0, 1, 2}

        makespan = max(iv.end for iv in res.trace)
        occ = occupancy(res.trace, makespan)
        assert set(occ) == {0, 1, 2}
        assert all(0.0 <= v <= 1.0 for v in occ.values())

        stats = {s.label: s for s in stage_summary(res.trace)}
        assert "search(s1)" in stats and "evaluate" in stats
        for s in stats.values():
            assert s.count >= 1
            assert s.total_seconds >= 0.0
        # Per-rank busy time can never exceed the run's makespan.
        busy_total = sum(s.total_seconds for s in stats.values())
        assert busy_total <= makespan * len(occ) + 1e-9

        # Tracing observes and never steers: the untraced run learns the
        # same theory through the same epoch log.
        plain = run_p2mdie(
            ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2, seed=1, backend="local", max_epochs=1
        )
        assert not plain.trace
        assert (list(plain.theory), plain.epoch_logs) == (list(res.theory), res.epoch_logs)


class TestOneRecord:
    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_trace_is_spans_and_trace_out_reads_back_equal(
        self, backend, tmp_path, capsys, monkeypatch
    ):
        # Every backend records the one activity record, and --trace-out
        # writes the run's trace as it is.
        import repro.cli
        from repro.obs import read_spans_jsonl

        outcomes = []
        real_run = repro.cli.run

        def recording_run(*args, **kw):
            outcomes.append(real_run(*args, **kw))
            return outcomes[-1]

        monkeypatch.setattr(repro.cli, "run", recording_run)
        out_file = tmp_path / "t.jsonl"
        argv = ["learn", "trains", "--p", "2", "--backend", backend, "--trace-out", str(out_file)]
        assert repro.cli.main(argv) == 0
        capsys.readouterr()
        (outcome,) = outcomes
        assert outcome.trace
        assert all(type(s) is Span and s.start <= s.end for s in outcome.trace)
        assert read_spans_jsonl(str(out_file)) == outcome.trace
