"""Flight recorder: crash-surviving spool of one incarnation's spans and logs."""

import json
import os

from repro.core.telemetry import Telemetry
from repro.obs.flight import FlightRecorder, flight_path, load_flight


def _telemetry():
    return Telemetry(trace=True, id_base=500)


def test_flight_path_names_node_and_incarnation(tmp_path):
    p = flight_path(str(tmp_path), "cli0", 2)
    assert p.endswith("cli0.2.flight.jsonl")


def test_tick_spools_closed_spans_only(tmp_path):
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), telemetry=tel,
                         node="n", incarnation=0, epoch=100.0)
    open_span = tel.tracer.begin("job work", component="n", start=1.0)
    done = tel.tracer.begin("journal flush", component="n", start=0.5)
    tel.tracer.finish(done, 0.6)
    assert rec.tick() == 1  # only the finished span lands
    tel.tracer.finish(open_span, 2.0)
    assert rec.tick() == 1  # now the other one does
    rec.close()

    dump = load_flight(rec.path)
    assert dump is not None
    assert dump["node"] == "n"
    assert dump["epoch"] == 100.0
    assert [s["name"] for s in dump["spans"]] == ["journal flush", "job work"]
    assert dump["sealed"] is False


def _count_writes(rec) -> list:
    writes = []
    write = rec._log._write

    def counted(lines):
        writes.append(lines.count("\n"))
        return write(lines)

    rec._log._write = counted
    return writes


def test_a_tick_spools_its_spans_with_one_write(tmp_path):
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), telemetry=tel,
                         node="n")
    writes = _count_writes(rec)
    for i in range(5):
        tel.tracer.finish(tel.tracer.begin("job work", component="n",
                                           start=float(i)), i + 0.5)
    assert rec.tick() == 5
    assert writes == [5]
    tel.tracer.begin("job work", component="n", start=9.0)  # stays open
    tel.tracer.finish(tel.tracer.begin("job work", component="n",
                                       start=8.0), 8.5)
    rec.seal("deadline")
    assert writes == [5, 3]  # one closed span, one open, the footer
    dump = load_flight(rec.path)
    assert len(dump["spans"]) == 7 and dump["sealed"]


def test_seal_dumps_open_spans_and_reason(tmp_path):
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 1), telemetry=tel,
                         node="n", incarnation=1)
    tel.tracer.begin("job work", component="n", start=1.0)  # never finished
    rec.seal("deadline")
    dump = load_flight(rec.path)
    assert dump["sealed"] is True
    assert dump["reason"] == "deadline"
    assert [s["name"] for s in dump["spans"]] == ["job work"]
    rec.seal("again")  # idempotent, no error after close


def test_logs_are_recorded(tmp_path):
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), node="n")
    rec.observe_log(1.5, "n", "info", "hello world")
    rec.close()
    dump = load_flight(rec.path)
    assert dump["logs"] == [{"t": 1.5, "component": "n", "level": "info",
                             "text": "hello world"}]


def test_one_spool_keeps_the_whole_incarnation(tmp_path):
    # The spool is the only carrier of a life's spans: nothing is
    # capped, rotated or dropped, however long the life.
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), telemetry=tel,
                         node="n")
    for i in range(5_000):
        s = tel.tracer.begin(f"s{i}", component="n", start=float(i))
        tel.tracer.finish(s, float(i) + 0.1)
        if i % 100 == 99:
            rec.tick()
    rec.seal("deadline")
    assert os.listdir(tmp_path) == [os.path.basename(rec.path)]
    dump = load_flight(rec.path)
    assert [s["name"] for s in dump["spans"]] == [f"s{i}" for i in range(5_000)]
    assert dump["sealed"] and dump["skipped"] == 0


def test_load_tolerates_torn_tail_line(tmp_path):
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), telemetry=tel,
                         node="n")
    s = tel.tracer.begin("done", component="n", start=0.0)
    tel.tracer.finish(s, 1.0)
    rec.tick()
    rec.close()
    with open(rec.path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"span","name":"torn')  # SIGKILL mid-write
    dump = load_flight(rec.path)
    assert [x["name"] for x in dump["spans"]] == ["done"]


def test_load_missing_spool_returns_none(tmp_path):
    assert load_flight(str(tmp_path / "nope.flight.jsonl")) is None


def test_spool_is_flushed_per_record(tmp_path):
    # The bytes must be on disk *before* any close/seal runs — that is
    # the whole SIGKILL story.
    tel = _telemetry()
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), telemetry=tel,
                         node="n")
    s = tel.tracer.begin("x", component="n", start=0.0)
    tel.tracer.finish(s, 0.5)
    rec.tick()
    with open(rec.path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert any(r.get("kind") == "span" for r in lines)
    rec.close()


# -- damage: counted, never fatal, never truncating (one reader, DESIGN §14) --

def _five_log_spool(tmp_path):
    rec = FlightRecorder(flight_path(str(tmp_path), "n", 0), node="n")
    for i in range(5):
        rec.observe_log(float(i), "n", "info", f"line {i}")
    rec.close()
    with open(rec.path, "rb") as fh:
        return rec.path, fh.readlines()   # [hello, log 0, ..., log 4]


def test_damaged_middle_line_costs_one_record_not_the_rest(tmp_path):
    path, lines = _five_log_spool(tmp_path)
    assert load_flight(path)["skipped"] == 0
    lines[2] = lines[2][:20] + b"\n"              # log 1, cut short
    with open(path, "wb") as fh:
        fh.writelines(lines)
    dump = load_flight(path)
    assert [r["text"] for r in dump["logs"]] == [
        "line 0", "line 2", "line 3", "line 4"]
    assert dump["skipped"] == 1


def test_non_utf8_byte_in_spool_is_survivable_through_the_supervisor(tmp_path):
    from types import SimpleNamespace

    from repro.live.supervisor import ManagedNode, Supervisor

    path, lines = _five_log_spool(tmp_path)
    damaged = bytearray(lines[3])
    damaged[len(damaged) // 2] ^= 0x80            # log 2: no longer UTF-8
    lines[3] = bytes(damaged)
    with open(path, "wb") as fh:
        fh.writelines(lines)
    dump = load_flight(path)
    assert [r["text"] for r in dump["logs"]] == [
        "line 0", "line 1", "line 3", "line 4"]
    assert dump["skipped"] == 1

    # What the supervisor does with a reaped incarnation's spool.
    manifest = SimpleNamespace(topology=SimpleNamespace(nodes=[]))
    sup = Supervisor(manifest, str(tmp_path / "manifest.json"), deadline=1.0)
    got = []
    sup.flight_sink = got.append
    sup._recover_flight(ManagedNode(name="n"))
    assert [d["skipped"] for d in got] == [1]
