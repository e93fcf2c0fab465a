"""Streaming sinks: CSV, JSON lines, Chrome trace, validation."""

import io
import json

import pytest

from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sample import SAMPLE_FIELDS, Sample
from repro.telemetry.sinks import (
    ChromeTraceSink,
    CsvSink,
    JsonLinesSink,
    TelemetrySink,
    ensure_sink,
    parse_jsonl_stream,
)

SAMPLES = [
    Sample(
        name="/threads{locality#0/total}/time/average",
        instance="locality#0/total",
        timestamp_ns=1000,
        value=0.1 + 0.2,  # needs repr precision to round-trip
        unit="ns",
        run_id="fib/hpx/c4",
    ),
    Sample(
        name="/threads{locality#0/total}/idle-rate",
        instance="locality#0/total",
        timestamp_ns=2000,
        value=250.0,
        unit="0.01%",
        run_id="fib/hpx/c4",
    ),
]


def test_ensure_sink_accepts_frames_and_sinks():
    assert ensure_sink(TelemetryFrame()) is not None
    assert ensure_sink(JsonLinesSink(io.StringIO())) is not None


@pytest.mark.parametrize("bad", [object(), 42, "sink", lambda s: None])
def test_ensure_sink_rejects_non_sinks(bad):
    with pytest.raises(TypeError, match="emit|close"):
        ensure_sink(bad)


def test_frame_satisfies_sink_protocol():
    assert isinstance(TelemetryFrame(), TelemetrySink)


def test_csv_sink_writes_header_and_rows():
    buf = io.StringIO()
    sink = CsvSink(buf)
    for sample in SAMPLES:
        sink.emit(sample)
    sink.close()  # borrowed stream: flushed, not closed
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(SAMPLE_FIELDS)
    assert len(lines) == 3
    assert lines[2] == (
        "/threads{locality#0/total}/idle-rate,locality#0/total,2000,250,0.01%,fib/hpx/c4"
    )


def test_csv_sink_owns_path_destination(tmp_path):
    path = tmp_path / "stream.csv"
    sink = CsvSink(path)
    sink.emit(SAMPLES[0])
    sink.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("/threads{locality#0/total}/time/average,")


def test_jsonl_round_trip_is_bit_identical():
    buf = io.StringIO()
    sink = JsonLinesSink(buf)
    for sample in SAMPLES:
        sink.emit(sample)
    sink.close()
    parsed = parse_jsonl_stream(buf.getvalue())
    assert parsed.samples == SAMPLES
    assert parsed.totals()[SAMPLES[0].name] == 0.1 + 0.2  # exact, not :g-rounded


def test_jsonl_lines_are_self_contained_objects():
    buf = io.StringIO()
    sink = JsonLinesSink(buf)
    sink.emit(SAMPLES[0])
    row = json.loads(buf.getvalue().splitlines()[0])
    assert set(row) == set(SAMPLE_FIELDS)


def test_parse_jsonl_stream_skips_blank_lines():
    buf = io.StringIO()
    sink = JsonLinesSink(buf)
    sink.emit(SAMPLES[0])
    text = "\n" + buf.getvalue() + "\n\n"
    assert len(parse_jsonl_stream(text)) == 1


def test_chrome_trace_sink_renders_counter_events():
    sink = ChromeTraceSink()
    for sample in SAMPLES:
        sink.emit(sample)
    doc = json.loads(sink.render())
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(counters) == 2
    assert counters[0]["name"] == SAMPLES[0].name
    assert counters[0]["args"]["value"] == SAMPLES[0].value
    assert counters[0]["ts"] == 1.0  # ns -> us


def test_chrome_trace_sink_writes_dest_on_close(tmp_path):
    path = tmp_path / "trace.json"
    sink = ChromeTraceSink(path)
    sink.emit(SAMPLES[0])
    sink.close()
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_chrome_trace_fold_combines_tasks_and_counters():
    from repro.profiler.events import TaskEvent
    from repro.trace.export import to_chrome_trace

    events = [
        TaskEvent(time_ns=0, kind="activate", tid=1, worker=0, description="task"),
        TaskEvent(time_ns=500, kind="terminate", tid=1, worker=0, description="task"),
    ]
    frame = TelemetryFrame(SAMPLES)
    doc = json.loads(to_chrome_trace(events, telemetry=frame))
    phases = sorted({e["ph"] for e in doc["traceEvents"]})
    assert phases == ["C", "X"]
    # Single-argument calls (the historical signature) still work.
    tasks_only = json.loads(to_chrome_trace(events))
    assert {e["ph"] for e in tasks_only["traceEvents"]} == {"X"}
