"""End-to-end job trace assembly from recorded spans.

The synthetic span sets here mirror what the live plane actually emits:
gateway ingress roots the trace, WorkQueue instants (assign, requeue,
done) and client work spans parent on it, and span ids
carry (node index, incarnation) provenance via the id-block layout.
"""

import json

import pytest

from repro.obs.jobtrace import (
    ID_BLOCK,
    MAX_INCARNATIONS,
    job_trace,
    load_spans,
    render_job_trace,
    span_origin,
)


def _base(idx: int, incarnation: int) -> int:
    return ((idx + 1) * MAX_INCARNATIONS + incarnation) * ID_BLOCK


def test_span_origin_inverts_id_base():
    assert span_origin(_base(0, 0) + 7) == (0, 0)
    assert span_origin(_base(3, 2) + 1) == (3, 2)
    assert span_origin(123) == (-1, -1)  # simulated runs: id_base 0


def _gateway_trace():
    gw, cli0, cli1 = _base(1, 0), _base(5, 0), _base(5, 1)
    trace = gw + 1
    return [
        {"trace_id": trace, "span_id": gw + 1, "parent_id": None,
         "name": "job ingress", "component": "gw0", "start": 0.0,
         "end": 0.001, "outcome": "ok", "args": {"job_id": "gw0-job-1"}},
        {"trace_id": trace, "span_id": gw + 3, "parent_id": gw + 1,
         "name": "job assign", "component": "gw0", "start": 0.1,
         "end": 0.1, "outcome": "ok", "args": {"id": "gw0-job-1"}},
        {"trace_id": trace, "span_id": cli0 + 1, "parent_id": gw + 1,
         "name": "job work", "component": "cli0", "start": 0.2, "end": 0.9,
         "outcome": "ok", "args": {"unit_id": "gw0-job-1"}},
        {"trace_id": trace, "span_id": gw + 4, "parent_id": gw + 1,
         "name": "job requeue", "component": "gw0", "start": 1.5,
         "end": 1.5, "outcome": "requeue", "args": {"id": "gw0-job-1"}},
        {"trace_id": trace, "span_id": cli1 + 1, "parent_id": gw + 1,
         "name": "job work", "component": "cli0", "start": 2.0, "end": 2.7,
         "outcome": "ok", "args": {"unit_id": "gw0-job-1"}},
        {"trace_id": trace, "span_id": gw + 5, "parent_id": gw + 1,
         "name": "job done", "component": "gw0", "start": 2.8, "end": 2.8,
         "outcome": "ok", "args": {"id": "gw0-job-1"}},
        # Noise from another job on another trace.
        {"trace_id": trace + 99, "span_id": gw + 50, "parent_id": None,
         "name": "job ingress", "component": "gw0", "start": 0.3,
         "end": 0.3, "outcome": "ok", "args": {"job_id": "gw0-job-2"}},
    ]


def test_job_trace_collects_one_causal_chain():
    trace = job_trace(_gateway_trace(), "gw0-job-1")
    assert trace["job"] == "gw0-job-1"
    assert [s["name"] for s in trace["spans"]] == [
        "job ingress", "job assign", "job work",
        "job requeue", "job work", "job done"]
    assert trace["requeues"] == 1
    # The kill/restart story: the chain crosses two client incarnations.
    assert (5, 0) in trace["incarnations"]
    assert (5, 1) in trace["incarnations"]


def test_job_trace_unknown_job_raises():
    with pytest.raises(KeyError):
        job_trace(_gateway_trace(), "gw0-job-404")


def test_render_names_incarnations_and_requeue():
    text = render_job_trace(job_trace(_gateway_trace(), "gw0-job-1"))
    assert "job gw0-job-1" in text
    assert "requeues=1" in text
    assert "inc0" in text and "inc1" in text
    assert "[requeue]" in text


def test_load_spans_accepts_file_dict_and_directory(tmp_path):
    spans = _gateway_trace()
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans}), encoding="utf-8")
    assert len(load_spans(str(path))) == len(spans)
    assert len(load_spans(str(tmp_path))) == len(spans)  # dir form
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(spans), encoding="utf-8")
    assert len(load_spans(str(bare))) == len(spans)
