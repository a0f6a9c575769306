"""Unit tests for the observability machinery: registry, modes, spans, sinks.

The phase numbers in manifests and traces only mean something if the
machinery underneath is airtight: mode resolution mirrors the other
``REPRO_*`` knobs (with ``REPRO_TRACE_FILE`` implying ``on``), off mode
really is one shared null span, collectors accumulate exactly what closed
inside them, trace segments merge into a nesting-valid timeline, and the
Prometheus renderer stays a pure function of the metrics payload.
"""

import json
import threading
import time

import pytest

from repro.obs import core, phases, prom, trace
from repro.obs.core import _override_mode, resolve_mode


@pytest.fixture
def obs_on():
    """Force mode on and give the test a clean registry/counter slate."""
    with _override_mode("on"):
        core.reset_counters()
        yield
    core.reset_counters()


@pytest.fixture
def scratch_trace(tmp_path, monkeypatch, obs_on):
    """Point the trace sink at a throwaway path with a fresh buffer."""
    path = str(tmp_path / "trace.json")
    monkeypatch.setattr(trace, "_PATH", path)
    monkeypatch.setattr(trace, "_EVENTS", [])
    monkeypatch.setattr(trace, "_MERGED", False)
    monkeypatch.setattr(trace, "_ABSORBED", [])
    monkeypatch.setattr(trace, "_FLUSH_REGISTERED", True)  # no atexit litter
    return path


class TestModeResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "off")
        assert resolve_mode("on") == "on"

    def test_environment_is_consulted_next(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "on")
        assert resolve_mode() == "on"

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(core.MODE_ENV, raising=False)
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        assert resolve_mode() == "off"

    def test_trace_file_implies_on(self, monkeypatch):
        monkeypatch.delenv(core.MODE_ENV, raising=False)
        monkeypatch.setenv(trace.TRACE_ENV, "/tmp/whatever.json")
        assert resolve_mode() == "on"

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "   ")
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        assert resolve_mode() == "off"

    def test_unknown_mode_raises(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "loud")
        with pytest.raises(ValueError, match="loud"):
            resolve_mode()
        with pytest.raises(ValueError):
            resolve_mode("verbose")


class TestOffMode:
    @pytest.fixture(autouse=True)
    def force_off(self):
        """Pin off mode so the class holds even on a REPRO_OBS=on CI leg."""
        with _override_mode("off"):
            yield

    def test_span_returns_the_shared_null_span(self):
        first = core.span("engine.compile")
        second = core.span("campaign.shard", shard="s-0001")
        assert first is second is core._NULL_SPAN

    def test_add_and_record_are_noops(self):
        before = core.get("ipc.bytes").count
        core.add("ipc.bytes", 4096)
        core.record("engine.compile", 1.0)
        assert core.get("ipc.bytes").count == before

    def test_collect_yields_none(self):
        with core.collect() as bucket:
            assert bucket is None


class TestRegistry:
    def test_redeclaration_is_idempotent(self):
        again = core.declare_span("engine.compile", phases.ENGINE_COMPILE.doc)
        assert again is phases.ENGINE_COMPILE

    def test_conflicting_redeclaration_raises(self):
        with pytest.raises(ValueError, match="already declared"):
            core.declare_counter("engine.compile", phases.ENGINE_COMPILE.doc)
        with pytest.raises(ValueError, match="already declared"):
            core.declare_span("engine.compile", "a different meaning")

    def test_unknown_instrument_raises(self, obs_on):
        with pytest.raises(KeyError):
            core.span("engine.nonexistent").__enter__()

    def test_wall_phases_are_registered_spans(self):
        for phase_id in phases.WALL_PHASES + phases.IPC_PHASES:
            assert core.get(phase_id).kind == "span"
        assert core.get(phases.IPC_BYTES_KEY).kind == "counter"

    def test_instrument_rows_shape(self):
        rows = core.instrument_rows()
        assert [row["id"] for row in rows] == sorted(row["id"] for row in rows)
        assert {"id", "kind", "count", "total"} <= set(rows[0])


class TestOnMode:
    def test_span_times_and_accumulates(self, obs_on):
        with core.span("engine.compile"):
            time.sleep(0.002)
        instrument = core.get("engine.compile")
        assert instrument.count == 1
        assert instrument.total >= 0.002

    def test_collect_receives_closed_spans(self, obs_on):
        with core.collect() as bucket:
            with core.span("engine.compile"):
                pass
            with core.span("engine.compile"):
                pass
            with core.span("campaign.collate"):
                pass
        assert set(bucket) == {"engine.compile", "campaign.collate"}
        assert bucket["engine.compile"] == pytest.approx(
            core.get("engine.compile").total
        )

    def test_collectors_nest_innermost_wins(self, obs_on):
        with core.collect() as outer:
            with core.span("campaign.sample"):
                pass
            with core.collect() as inner:
                with core.span("engine.compile"):
                    pass
        assert "engine.compile" in inner
        assert "engine.compile" not in outer
        assert "campaign.sample" in outer

    def test_collectors_are_thread_local(self, obs_on):
        seen = {}

        def worker():
            with core.collect() as bucket:
                with core.span("engine.assemble"):
                    pass
                seen["worker"] = dict(bucket)

        with core.collect() as main_bucket:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert "engine.assemble" in seen["worker"]
        assert main_bucket == {}

    def test_record_feeds_collector_like_a_span(self, obs_on):
        with core.collect() as bucket:
            core.record("ipc.serialize", 0.25)
        assert bucket == {"ipc.serialize": 0.25}
        assert core.get("ipc.serialize").total == 0.25

    def test_counters_do_not_deposit_into_collectors(self, obs_on):
        with core.collect() as bucket:
            core.add("ipc.bytes", 1024)
            core.add("ipc.bytes", 1024)
        assert bucket == {}
        assert core.get("ipc.bytes").count == 2
        assert core.get("ipc.bytes").total == 2048.0

    def test_override_restores_previous_mode(self):
        previous = core.mode()
        with _override_mode("off"):
            assert not core.enabled()
            with _override_mode("on"):
                assert core.enabled()
            assert not core.enabled()
        assert core.mode() == previous


class TestTraceSink:
    def test_emit_flush_merge_validate(self, scratch_trace):
        with core.span("engine.compile", backend="numpy"):
            pass
        with core.span("campaign.shard", shard="s-0001"):
            with core.span("campaign.sample"):
                pass
        segment = trace.flush()
        assert segment and segment.startswith(scratch_trace + ".seg-")
        merged = trace.merge()
        assert merged == scratch_trace
        assert not any(
            event.get("name") is None
            for event in json.load(open(merged))["traceEvents"]
        )
        assert trace.validate(scratch_trace) == 3
        # consumed segments are deleted; flush after merge is a no-op
        assert trace.flush() is None

    def test_span_tags_land_in_args(self, scratch_trace):
        with core.span("campaign.shard", shard="c0-a0-s0001"):
            pass
        trace.flush()
        trace.merge()
        (event,) = json.load(open(scratch_trace))["traceEvents"]
        assert event["args"] == {"shard": "c0-a0-s0001"}

    def test_merge_collects_worker_segments(self, scratch_trace, tmp_path):
        foreign = [{
            "name": "engine.compile", "ph": "X", "ts": 1.0, "dur": 5.0,
            "pid": 99999, "tid": 1,
        }]
        with open(scratch_trace + ".seg-99999.json", "w") as handle:
            json.dump(foreign, handle)
        with core.span("campaign.store_write"):
            pass
        trace.merge()
        events = json.load(open(scratch_trace))["traceEvents"]
        assert {event["pid"] for event in events} >= {99999}
        assert len(events) == 2

    def test_validate_rejects_interleaved_spans(self, tmp_path):
        path = tmp_path / "bad.json"
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10_000.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5_000.0, "dur": 10_000.0, "pid": 1, "tid": 1},
        ]
        path.write_text(json.dumps({"traceEvents": events}))
        with pytest.raises(ValueError, match="interleave"):
            trace.validate(str(path))

    def test_validate_rejects_empty_and_malformed(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="no traceEvents"):
            trace.validate(str(empty))
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps({"traceEvents": [{"name": "a", "ph": "X"}]}))
        with pytest.raises(ValueError, match="missing"):
            trace.validate(str(torn))

    def test_inactive_process_emits_nothing(self, obs_on):
        assert not trace.active()
        assert trace.flush() is None
        assert trace.merge() is None


class TestPrometheusRenderer:
    METRICS = {
        "ready": True,
        "queue": {
            "depth": 3, "depth_limit": 16, "jobs_total": 7,
            "jobs_by_state": {"queued": 2, "running": 1, "completed": 4},
            "attempts_total": 9, "torn_lines": 0, "invalid_records": 0,
        },
        "scheduler": {"inflight": 1, "jobs_completed": 4, "jobs_quarantined": 0},
        "shards": {
            "shard_attempts": 40, "shards_executed": 38, "shards_retried": 2,
            "shards_quarantined": 0, "rows_computed": 9728,
            "wall_seconds": 12.5, "shards_per_second": 3.04,
        },
        "shards_session": {
            "shard_attempts": 10, "shards_executed": 10, "shards_retried": 0,
            "shards_quarantined": 0, "rows_computed": 2560,
            "wall_seconds": 3.2, "shards_per_second": 3.125,
        },
    }

    def test_exposition_has_typed_required_families(self):
        text = prom.render_prometheus(self.METRICS)
        for family, kind in [
            ("repro_service_ready", "gauge"),
            ("repro_queue_depth", "gauge"),
            ("repro_jobs", "gauge"),
            ("repro_shards_lifetime_shards_executed_total", "counter"),
            ("repro_shards_session_shards_executed_total", "counter"),
            ("repro_shards_session_shards_per_second", "gauge"),
        ]:
            assert f"# TYPE {family} {kind}" in text
        assert 'repro_jobs{state="queued"} 2' in text
        assert text.endswith("\n")

    def test_every_sample_line_is_well_formed(self):
        for line in prom.render_prometheus(self.METRICS).strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name, value = line.rsplit(" ", 1)
                float(value)
                assert name[0].isalpha()

    def test_missing_sections_are_omitted_not_fatal(self):
        text = prom.render_prometheus({"ready": False})
        assert "repro_service_ready 0" in text
        assert "repro_shards" not in text
        assert prom.render_prometheus({}) == "\n"
