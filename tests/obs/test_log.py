"""Tests for the structured logger (repro.util.log)."""

import io
import json

import pytest

from repro.util.log import (
    StructuredLogger,
    bound_context,
    get_logger,
    log_context,
    log_format,
    log_level,
    set_log_format,
    set_log_level,
)


@pytest.fixture(autouse=True)
def _reset_overrides():
    yield
    set_log_format(None)
    set_log_level(None)


class TestFormatGate:
    def test_default_text(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert log_format() == "text"

    def test_env_json(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "json")
        assert log_format() == "json"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "json")
        set_log_format("text")
        assert log_format() == "text"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_log_format("xml")


class TestLevelGate:
    def test_default_info(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert log_level() == "info"

    def test_debug_filtered_at_info(self):
        buf = io.StringIO()
        set_log_level("info")
        StructuredLogger("t", stream=buf).debug("hidden")
        assert buf.getvalue() == ""

    def test_warning_passes_at_info(self):
        buf = io.StringIO()
        set_log_level("info")
        StructuredLogger("t", stream=buf).warning("shown")
        assert "shown" in buf.getvalue()

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_log_level("loud")

    def test_env_threshold_is_resolved_once(self, monkeypatch):
        # The suppressed-debug path costs no os.environ read per call:
        # the env level is resolved at the first log call and again only
        # after set_log_level().
        buf = io.StringIO()
        logger = StructuredLogger("t", stream=buf)
        monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
        set_log_level(None)
        logger.warning("hidden")
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        logger.warning("still-hidden")
        assert buf.getvalue() == ""
        set_log_level(None)
        logger.debug("shown")
        assert "shown" in buf.getvalue()


class TestJsonOutput:
    def test_record_shape(self):
        buf = io.StringIO()
        set_log_format("json")
        log = StructuredLogger("repro.test", stream=buf, clock=lambda: 12.5)
        log.info("job_state", job_id="j1", state="running")
        rec = json.loads(buf.getvalue())
        assert rec == {
            "ts": 12.5,
            "level": "info",
            "logger": "repro.test",
            "event": "job_state",
            "job_id": "j1",
            "state": "running",
        }

    def test_context_fields_included(self):
        buf = io.StringIO()
        set_log_format("json")
        log = StructuredLogger("t", stream=buf)
        with log_context(request_id="req-1"):
            log.info("request")
        assert json.loads(buf.getvalue())["request_id"] == "req-1"


class TestTextOutput:
    def test_line_shape(self):
        buf = io.StringIO()
        set_log_format("text")
        StructuredLogger("repro.test", stream=buf).info("serving", port=9000)
        line = buf.getvalue().strip()
        assert line.startswith("INFO")
        assert "repro.test serving" in line
        assert "port=9000" in line

    def test_values_with_spaces_quoted(self):
        buf = io.StringIO()
        set_log_format("text")
        StructuredLogger("t", stream=buf).warning("fail", error="no such file")
        assert 'error="no such file"' in buf.getvalue()


class TestContext:
    def test_nested_binding_and_reset(self):
        assert bound_context() == {}
        with log_context(request_id="a"):
            with log_context(job_id="b"):
                assert bound_context() == {"request_id": "a", "job_id": "b"}
            assert bound_context() == {"request_id": "a"}
        assert bound_context() == {}


class TestRobustness:
    def test_closed_stream_swallowed(self):
        buf = io.StringIO()
        log = StructuredLogger("t", stream=buf)
        buf.close()
        log.info("after_close")  # must not raise

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            StructuredLogger("t", stream=io.StringIO()).log("silly", "x")


class TestGetLogger:
    def test_process_wide_cache(self):
        assert get_logger("repro.abc") is get_logger("repro.abc")
