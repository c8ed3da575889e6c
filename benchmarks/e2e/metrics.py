"""The metric catalogue: the one place names, units, directions, bounds
and predicted interactions are written down.

``BENCHMARK.json`` at the repository root is generated from this table
(``run.py --update``) and ``run.py --selftest`` checks the two agree.

End-to-end metrics are measured with tracing off, on every workload, and
carry the bound by which they may worsen before a change is a
regression. Per-layer metrics come from the separate traced pass (plus
the user-visible latencies of its untraced reference run, which apply to
some workloads only and therefore cannot be end-to-end metrics under the
driver's contract); they have no bound and read 0 on a workload whose
layers they do not touch.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from workloads import RUN_SECONDS, WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "COMMAND", "PATHS",
           "benchmark_json"]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

SIM = ("sc98_fig2", "pool_converge")
CONTROL = ("gateway_submit", "explore_pump")
ALL = SIM + CONTROL


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Regression bound (end-to-end only): share of the parent's median.
    bound: Optional[float]
    #: Workloads on which it is non-zero.
    on: tuple
    #: The end-to-end metric it should move (layer metrics), or what it is.
    moves: str


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25, ALL,
           "process start -> start of the timed region: imports, world "
           "build (+ pool warm-up), or gateway spawn -> first 200 on "
           "/health -> connections open"),
    Metric("wall_s", "s", "lower", 0.25, ALL,
           "host seconds for the fixed-size timed region"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, ALL,
           "peak resident set of the process under test (sim process; "
           "gateway child before it is killed)"),
    Metric("op_us", "us", "lower", 0.25, ALL,
           "wall_s per operation completed (delivered message, job, "
           "task): comparable across seeds, whose operation counts differ"),
]


def _layer(name: str, on: tuple, moves: str) -> list:
    return [Metric(f"{name}.calls", "count", "lower", None, on, moves),
            Metric(f"{name}.self_s", "s", "lower", None, on, moves)]


PER_LAYER = [
    # -- user-visible latencies, from the untraced reference run ----------
    Metric("submit_p50_ms", "ms", "lower", None, ("gateway_submit",),
           "POST /jobs written -> 201 parsed"),
    Metric("submit_p99_ms", "ms", "lower", None, ("gateway_submit",),
           "POST /jobs written -> 201 parsed"),
    Metric("job_p50_ms", "ms", "lower", None, CONTROL,
           "submit written -> result observed (GET shows done; "
           "ExploreQueue pop latency)"),
    Metric("job_p99_ms", "ms", "lower", None, CONTROL,
           "submit written -> result observed"),
    Metric("gen_p50_ms", "ms", "lower", None, ("explore_pump",),
           "generation minted -> its last result popped"),
    Metric("restart_s", "s", "lower", None, ("gateway_submit",),
           "SIGKILL -> respawn on the same journal -> first 200 on /health"),
    # -- simulated stack ---------------------------------------------------
    Metric("sim.plumbing.self_s", "s", "lower", None, SIM,
           "wall_s; op_us (pool_converge most)"),
    Metric("sim.plumbing.us_per_msg", "us", "lower", None, SIM,
           "wall_s; op_us"),
    *_layer("network.send", SIM, "wall_s"),
    Metric("network.delivered", "count", "higher", None, SIM,
           "repeats exactly"),
    Metric("network.bytes_delivered", "bytes", "lower", None, SIM,
           "repeats exactly"),
    Metric("network.dropped", "count", "lower", None, SIM, "repeats exactly"),
    *_layer("codec.encode", SIM, "wall_s"),
    *_layer("codec.decode", SIM, "wall_s"),
    *_layer("gossip.handlers", SIM, "wall_s (pool_converge)"),
    Metric("gossip.converge_rounds", "count", "lower", None,
           ("pool_converge",), "repeats exactly"),
    Metric("gossip.sync_bytes", "bytes", "lower", None, SIM, "wall_s"),
    Metric("gossip.digest_rounds", "count", "lower", None, SIM, "wall_s"),
    *_layer("forecasting.update", SIM, "wall_s (sc98_fig2)"),
    *_layer("forecasting.forecast", SIM, "wall_s (sc98_fig2)"),
    Metric("forecasting.banks_built", "count", "lower", None, SIM,
           "setup_s, peak_rss_mb (pool_converge)"),
    *_layer("scheduler.handlers", ("sc98_fig2",), "wall_s"),
    *_layer("services.handlers", ("sc98_fig2",), "wall_s"),
    *_layer("client.handlers", ("sc98_fig2",), "wall_s"),
    # -- control stack (gateway child) ------------------------------------
    *_layer("http.decode", CONTROL, "submit_p50_ms, wall_s"),
    *_layer("gateway.route", CONTROL, "submit_p50_ms, wall_s"),
    *_layer("gateway.render", CONTROL, "submit_p50_ms, wall_s"),
    *_layer("workqueue.submit", CONTROL, "job_p50_ms, wall_s, peak_rss_mb"),
    *_layer("workqueue.read", CONTROL, "job_p50_ms, wall_s"),
    *_layer("workqueue.dispatch", CONTROL, "job_p50_ms, wall_s"),
    *_layer("kinds.check", ("explore_pump",), "job_p50_ms, gen_p50_ms"),
    *_layer("journal.append", CONTROL,
            "submit_p50/p99_ms (gateway_submit), gen_p50_ms (explore_pump)"),
    Metric("journal.bytes", "bytes", "lower", None, CONTROL, "restart_s"),
    Metric("journal.records", "count", "lower", None, CONTROL, "restart_s"),
    Metric("journal.replay_s", "s", "lower", None, ("gateway_submit",),
           "restart_s"),
    Metric("journal.replay_rss_mb", "MB", "lower", None, ("gateway_submit",),
           "memory after replay"),
    *_layer("tcp.reactor", CONTROL, "wall_s, submit_p99_ms"),
    Metric("tcp.reactor.wait_s", "s", "lower", None, CONTROL,
           "gateway blocked in select(): waiting for the generator or "
           "the wire, not working"),
    Metric("tcp.reactor.busy_frac", "ratio", "higher", None, CONTROL,
           "gateway CPU / wall, untraced: how much of a saved second "
           "comes off wall_s"),
    *_layer("explore.queue.push", ("explore_pump",), "gen_p50_ms"),
    *_layer("explore.queue.pop", ("explore_pump",), "gen_p50_ms, job_p50_ms"),
    *_layer("explore.eval", ("explore_pump",), "gen_p50_ms"),
    Metric("gateway.decay_ratio", "ratio", "higher", None, ("gateway_submit",),
           "last-quarter / first-quarter jobs/s, untraced"),
    Metric("gateway.sweep_gets_per_s", "1/s", "higher", None,
           ("gateway_submit",), "read path over full state, after restart"),
    # -- validity of every row above --------------------------------------
    Metric("loadgen.cpu_frac", "ratio", "lower", None, CONTROL,
           "generator CPU / wall; gateway_submit fails at 0.6"),
    Metric("trace.coverage", "ratio", "higher", None, ALL,
           "share of the traced wall inside a named span of the process "
           "under test"),
    Metric("trace.overhead_frac", "ratio", "lower", None, ALL,
           "traced wall_s / untraced wall_s - 1"),
    # -- ladders: isolated cost per operation ------------------------------
    *(Metric(f"ladder.{cell}_us", "us", "lower", None, SIM, "sim ladder")
      for cell in ("engine_event", "store_getput", "net_send",
                   "codec_roundtrip", "endpoint_roundtrip",
                   "driver_roundtrip", "gossip_round", "forecast_update",
                   "bank_build")),
    *(Metric(f"ladder.{cell}_us", "us", "lower", None, CONTROL,
             "control ladder")
      for cell in ("tcp_echo", "http_decode", "route", "journal_append",
                   "render", "post_jobs")),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, exactly the contract's keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
