"""The four end-to-end workloads and their correctness checks.

Every workload does a *fixed count* of work derived from ``--seconds``,
never a fixed duration, so two commits always do identical work. Inputs
come from ``--seed`` only.

A workload returns a :class:`Outcome`: the end-to-end metrics, the extra
user-visible latencies, counts, named checks, and — for the simulated
worlds — the SHA of the same-seed export. With a
:class:`~spans.Recorder` it also wraps the layer boundaries (before the
world is built) and reports per-layer spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Optional

import stats
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

WORKLOADS = {
    "sc98_fig2": "the paper's headline world: every service, forecaster, "
                 "adapter and the judging-time load spike; scheduler, "
                 "client and forecasting work happen here and nowhere else",
    "pool_converge": "a 1,024-member gossip pool is almost pure per-message "
                     "path with a large working set and no scheduler, "
                     "client or infrastructure work",
    "gateway_submit": "single-record write path: HTTP decode, route, queue "
                      "insert, one journal flush per submit and per "
                      "completion, then O(history) replay after SIGKILL",
    "explore_pump": "same gateway, queue and journal used the other way: "
                    "one batched flush per 200 specs, large bodies, /events "
                    "tail reads, result sanity checks",
}

#: How long one run measures (BENCHMARK.json ``run_seconds``), and each
#: workload's size at that length, chosen so the timed region takes about
#: that long at the commit that introduced the benchmark. ``--seconds``
#: scales the sizes linearly; the pool keeps its thousand members (the
#: working set is the point) and therefore runs a little longer.
RUN_SECONDS = 12
SC98_SCALE = 0.09
POOL_HOSTS = 1024
POOL_WARM_SIM_S = 30.0
JOBS = 120_000
GENERATIONS = 168
TASKS_PER_GENERATION = 200
#: Closed-loop concurrency of gateway_submit: connections x window.
WINDOW = 8
MAX_CONNECTIONS = 4
#: Distinct pre-rendered POST /jobs requests cycled through by a storm.
POST_POOL = 1024


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: name -> (passed, detail); any failure makes the run incorrect.
    checks: dict = field(default_factory=dict)
    #: metric name -> value, for every metric this pass measured.
    metrics: dict = field(default_factory=dict)
    #: metric name -> samples behind it (timings only).
    samples: dict = field(default_factory=dict)
    export_sha: Optional[str] = None
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.checks.values())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = (bool(ok), detail)

    def end_to_end(self, wall_s: float, peak_rss_mb: float) -> None:
        """The timed region's metrics; ``attempted`` must be set."""
        self.metrics["wall_s"] = wall_s
        self.metrics["peak_rss_mb"] = peak_rss_mb
        self.metrics["op_us"] = wall_s / self.attempted * 1e6

    def timing(self, name: str, samples_s: list, q: float) -> None:
        """Record a percentile, in ms, with its sample count; a
        percentile without ten samples beyond it is not reported."""
        value, n = stats.percentile(samples_s, q)
        self.samples[name] = n
        if value is not None:
            self.metrics[name] = value * 1000.0
        else:
            self.notes.append(f"{name}: only {n} samples, not reported")

    def layer(self, name: str, calls: int, self_s: float) -> None:
        self.metrics[f"{name}.calls"] = calls
        self.metrics[f"{name}.self_s"] = self_s


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# simulated plane
# ---------------------------------------------------------------------------

_HANDLER_HOOKS = ("on_start", "on_message", "on_timer", "on_send_failed")


def install_sim_tracing(rec: Recorder) -> None:
    """Wrap the simulated stack's layer boundaries (class attributes)."""
    from repro.core.forecasting.selector import ForecasterBank
    from repro.core.gossip.server import GossipServer
    from repro.core.linguafranca.messages import Message
    from repro.core.services.logging import LoggingServer
    from repro.core.services.persistent import PersistentStateServer
    from repro.core.services.scheduler import SchedulerServer
    from repro.ramsey.client import RamseyClient
    from repro.simgrid.engine import Environment
    from repro.simgrid.network import Network

    rec.patch(Environment, "run", "sim.plumbing")
    rec.patch(Network, "send", "network.send")
    rec.patch(Message, "encode", "codec.encode")
    rec.patch(Message, "decode", "codec.decode")
    rec.patch(Message, "from_parts", "codec.decode")
    rec.patch(ForecasterBank, "__init__", "forecasting.bank_build")
    rec.patch(ForecasterBank, "update", "forecasting.update")
    rec.patch(ForecasterBank, "forecast", "forecasting.forecast")
    for cls, name in ((GossipServer, "gossip.handlers"),
                      (SchedulerServer, "scheduler.handlers"),
                      (PersistentStateServer, "services.handlers"),
                      (LoggingServer, "services.handlers"),
                      (RamseyClient, "client.handlers")):
        rec.name_id(name)
        for hook in _HANDLER_HOOKS:
            if hook in vars(cls):
                rec.patch(cls, hook, name)


_SIM_LAYERS = ("network.send", "codec.encode", "codec.decode",
               "gossip.handlers", "forecasting.update",
               "forecasting.forecast", "scheduler.handlers",
               "services.handlers", "client.handlers")


def _net_counts(net_stats) -> tuple:
    return net_stats.sent, net_stats.delivered, net_stats.bytes_delivered


def _sim_layer_metrics(out: Outcome, rec: Recorder, wall_s: float,
                       net_before: tuple, net_stats, gossip_stats: list,
                       banks_in_setup: int) -> None:
    """Per-layer metrics of a simulated world over the timed region."""
    m = out.metrics
    for name in _SIM_LAYERS:
        out.layer(name, *rec.layer(name))
    # Banks are counted over set-up too: that is where a pool builds them.
    m["forecasting.banks_built"] = (
        banks_in_setup + rec.layer("forecasting.bank_build")[0])
    sent, delivered, nbytes = (
        after - before
        for before, after in zip(net_before, _net_counts(net_stats)))
    m["network.delivered"] = delivered
    m["network.bytes_delivered"] = nbytes
    m["network.dropped"] = sent - delivered
    _, plumbing = rec.layer("sim.plumbing")
    m["sim.plumbing.self_s"] = plumbing
    m["sim.plumbing.us_per_msg"] = plumbing / delivered * 1e6
    m["trace.coverage"] = rec.self_total() / wall_s
    m["gossip.sync_bytes"] = sum(g.bytes_sent for g in gossip_stats)
    m["gossip.digest_rounds"] = sum(g.digest_rounds for g in gossip_stats)
    out.notes.extend(f"wrap target missing: {name}" for name in rec.missing)


def sc98_fig2(seed: int, seconds: float, t_start: float,
              rec: Optional[Recorder], out_dir: str) -> Outcome:
    from repro.experiments.export import headlines_json, rates_csv
    from repro.experiments.sc98 import SC98Config, build_sc98, clock_to_offset
    if rec is not None:
        install_sim_tracing(rec)
    import_s = perf_counter() - t_start

    out = Outcome()
    config = SC98Config(scale=SC98_SCALE * seconds / RUN_SECONDS, seed=seed)
    builds = []
    for _ in range(3):  # set-up is small: take the median of three
        t0 = perf_counter()
        world = build_sc98(config)
        builds.append(perf_counter() - t0)
    out.metrics["setup_s"] = import_s + stats.median(builds)
    out.samples["setup_s"] = len(builds)

    if rec is not None:  # banks of one world, not of the three built
        banks_in_setup = rec.layer("forecasting.bank_build")[0] // len(builds)
        rec.reset()
    net = world.network.stats
    net_before = _net_counts(net)
    t0 = perf_counter()
    results = world.run()
    wall_s = perf_counter() - t0

    out.attempted = net.delivered
    out.end_to_end(wall_s, _peak_rss_mb())
    peak_t, peak = results.peak()
    dip, recovery = results.judging_dip(), results.recovery()
    out.check("fig2.peak_before_judging", peak_t < clock_to_offset(11, 0),
              f"peak at offset {peak_t:.0f}s")
    out.check("fig2.judging_dip_below_peak", dip < peak,
              f"dip {dip:.4g} vs peak {peak:.4g}")
    out.check("fig2.recovery_above_dip", recovery > dip,
              f"recovery {recovery:.4g} vs dip {dip:.4g}")
    out.check("delivered_messages", net.delivered > 0, str(net.delivered))
    out.export_sha = _sha(headlines_json(results), rates_csv(results),
                          repr(net))
    if rec is not None:
        _sim_layer_metrics(out, rec, wall_s, net_before, net,
                           results.gossip_stats, banks_in_setup)
        rec.write(os.path.join(out_dir, "spans.json"))
    return out


def pool_rounds_bound(hosts: int) -> int:
    """The convergence bound a write must meet: 1.5*log2(N) + 4 rounds."""
    return math.floor(1.5 * math.log2(hosts) + 4)


def pool_converge(seed: int, seconds: float, t_start: float,
                  rec: Optional[Recorder], out_dir: str) -> Outcome:
    from repro.experiments.bigpool import build_pool, export_json, inject_write
    if rec is not None:
        install_sim_tracing(rec)
    import_s = perf_counter() - t_start

    out = Outcome()
    hosts = max(32, int(POOL_HOSTS * seconds / RUN_SECONDS))
    bound = pool_rounds_bound(hosts)
    # Set-up is seconds of deterministic work here (build + 30 simulated
    # seconds to a converged pool), so one sample is already steady.
    t0 = perf_counter()
    pool = build_pool(n_hosts=hosts, seed=seed)
    pool.run(until=POOL_WARM_SIM_S)
    out.metrics["setup_s"] = import_s + perf_counter() - t0
    out.samples["setup_s"] = 1
    out.check("pool.warm_converged", pool.converged())

    # Two writes from different members, then a *fixed* horizon of
    # bound+1 sync rounds: how many rounds a rumor needs varies with the
    # seed, the work in a fixed horizon does not.
    nodes = random.Random(seed).sample(range(hosts), 2)
    inject_write(pool, node=nodes[0], tag="E2E_WRITE_A", seq=1)
    inject_write(pool, node=nodes[1], tag="E2E_WRITE_B", seq=2)
    if rec is not None:
        banks_in_setup = rec.layer("forecasting.bank_build")[0]
        rec.reset()
    net = pool.network.stats
    net_before = _net_counts(net)
    period = pool.config.sync_period
    start = pool.env.now
    converged_at = None
    t0 = perf_counter()
    for i in range(1, bound + 2):
        pool.run(until=start + i * period)
        if converged_at is None and pool.converged():
            converged_at = i
    wall_s = perf_counter() - t0

    out.attempted = net.delivered - net_before[1]
    out.end_to_end(wall_s, _peak_rss_mb())
    out.check("pool.converged", pool.converged())
    out.check("pool.rounds_within_bound",
              converged_at is not None and converged_at <= bound,
              f"converged after {converged_at} rounds, bound {bound} "
              f"(1.5*log2({hosts})+4)")
    out.export_sha = _sha(export_json(pool))
    if rec is not None:
        _sim_layer_metrics(out, rec, wall_s, net_before, net,
                           [g.stats for g in pool.servers], banks_in_setup)
        out.metrics["gossip.converge_rounds"] = converged_at or 0
        rec.write(os.path.join(out_dir, "spans.json"))
    return out


# ---------------------------------------------------------------------------
# control plane
# ---------------------------------------------------------------------------

class Gateway:
    """One benchmark-owned gateway child on a journal file."""

    def __init__(self, journal: str, trace_out: Optional[str] = None) -> None:
        self.journal = journal
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def spawn(self) -> None:
        """Start the child and wait for the first 200 on /health."""
        from loadgen import LoadGenError, get_json
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, os.path.join(HERE, "gateway_child.py"),
               "--journal", self.journal]
        if self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.kill()
            raise LoadGenError(f"gateway child did not start: {line!r}")
        self.port = int(line.split()[1])
        status, _ = get_json(self.port, "/health")
        if status != 200:
            self.kill()
            raise LoadGenError(f"/health answered {status}")

    def stats(self) -> dict:
        from loadgen import get_json
        return get_json(self.port, "/__bench/stats")[1]

    def kill(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None


def _control_setup(out: Outcome, journal: str, trace_out: Optional[str],
                   import_s: float, connect: Callable):
    """Spawn the gateway child three times, keeping the last. Set-up is
    child spawn -> first 200 on /health -> ``connect(port)`` done;
    returns (gateway, what connect returned)."""
    if os.path.exists(journal):  # a kept --out directory, run again
        os.remove(journal)
    spawns = []
    for attempt in range(3):
        gateway = Gateway(journal, trace_out)
        t0 = perf_counter()
        gateway.spawn()
        try:
            client = connect(gateway.port)
        except BaseException:
            gateway.kill()
            raise
        spawns.append(perf_counter() - t0)
        if attempt < 2:
            client.close()
            gateway.kill()  # nothing was submitted: the journal is still empty
    out.metrics["setup_s"] = import_s + stats.median(spawns)
    out.samples["setup_s"] = len(spawns)
    return gateway, client


_CONTROL_LAYERS = ("http.decode", "gateway.route", "gateway.render",
                   "workqueue.submit", "workqueue.read",
                   "workqueue.dispatch", "kinds.check", "journal.append",
                   "explore.eval", "tcp.reactor")


def _control_layer_metrics(out: Outcome, before: dict, after: dict,
                           wall_s: float) -> None:
    """Per-layer metrics of the gateway child over the timed region:
    its spans at the end minus its spans at the start."""
    m = out.metrics
    zero = {"calls": 0, "self_s": 0.0}
    spans = {name: {key: layer[key] - before["layers"].get(name, zero)[key]
                    for key in zero}
             for name, layer in after["layers"].items()}
    for name in _CONTROL_LAYERS:
        layer = spans.get(name, zero)
        out.layer(name, layer["calls"], layer["self_s"])
    m["tcp.reactor.wait_s"] = spans.get("tcp.reactor.wait", zero)["self_s"]
    m["trace.coverage"] = sum(l["self_s"] for l in spans.values()) / wall_s
    out.notes.extend(f"wrap target missing: {name}"
                     for name in after["missing"])


def _child_metrics(out: Outcome, before: dict, after: dict, wall_s: float,
                   journal: str) -> None:
    """What the gateway child reports about the timed region with or
    without tracing: its CPU share and what it wrote."""
    m = out.metrics
    m["tcp.reactor.busy_frac"] = (after["cpu_s"] - before["cpu_s"]) / wall_s
    m["journal.bytes"] = after["journal_bytes"] - before["journal_bytes"]
    with open(journal, "rb") as fh:  # JSONL, empty when the run began
        m["journal.records"] = sum(1 for _ in fh)


def render_posts(seed: int) -> list:
    """POST_POOL distinct ``POST /jobs`` requests, rendered once."""
    rng = random.Random(seed)
    posts = []
    for i in range(POST_POOL):
        spec = {"kind": "bench.inert", "user": rng.randrange(1000), "n": i,
                "payload": "%x" % rng.getrandbits(rng.randrange(64, 512))}
        body = json.dumps(spec, separators=(",", ":")).encode("ascii")
        posts.append(b"POST /jobs HTTP/1.1\r\nHost: e2e\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
    return posts


def gateway_submit(seed: int, seconds: float, t_start: float,
                   rec: Optional[Recorder], out_dir: str) -> Outcome:
    from loadgen import (MAX_CPU_FRAC, LoadGen, ReadFlow, StormLog,
                         SubmitFlow, get_json)
    import_s = perf_counter() - t_start

    out = Outcome()
    jobs = max(2000, int(JOBS * seconds / RUN_SECONDS))
    connections = min(os.cpu_count() or 1, MAX_CONNECTIONS)
    posts = render_posts(seed)
    journal = os.path.join(out_dir, "gateway.journal")
    trace_out = os.path.join(out_dir, "spans.json") if rec is not None else None
    gateway, gen = _control_setup(
        out, journal, trace_out, import_s,
        lambda port: LoadGen(port, connections, WINDOW))
    try:
        log = StormLog()
        with KeepAwake():
            before = gateway.stats()
            gen.run(SubmitFlow(posts[i % POST_POOL], log) for i in range(jobs))
            after = gateway.stats()
        gen.close()
        wall_s = gen.wall_s

        t0 = perf_counter()
        gateway.kill()           # SIGKILL: no goodbye, no flush
        gateway.trace_out = None  # keep the storm's span dump
        gateway.spawn()          # same journal
        restart_s = perf_counter() - t0
        reborn = gateway.stats()

        sweep = StormLog()
        sweeper = LoadGen(gateway.port, connections, WINDOW)
        sweeper.run(ReadFlow(job_id, sweep) for job_id in log.ids)
        sweeper.close()
        _, listing = get_json(gateway.port, "/jobs")
    finally:
        gateway.kill()

    out.attempted = jobs
    out.failed = (log.failed + (jobs - len(log.job_s)) + sweep.failed)
    m = out.metrics
    out.end_to_end(wall_s, after["peak_rss_mb"])
    out.timing("submit_p50_ms", log.submit_s, 0.50)
    out.timing("submit_p99_ms", log.submit_s, 0.99)
    out.timing("job_p50_ms", log.job_s, 0.50)
    out.timing("job_p99_ms", log.job_s, 0.99)
    m["restart_s"] = restart_s
    out.samples["restart_s"] = 1
    m["journal.replay_s"] = reborn["replay_s"]
    m["journal.replay_rss_mb"] = reborn["peak_rss_mb"]
    quarter = len(log.done_at) // 4
    if quarter > 1:
        first = log.done_at[quarter - 1] - log.done_at[0]
        last = log.done_at[-1] - log.done_at[-quarter]
        m["gateway.decay_ratio"] = first / last  # = last-quarter/first-quarter jobs/s
    m["gateway.sweep_gets_per_s"] = sweep.gets / sweeper.wall_s
    m["loadgen.cpu_frac"] = gen.cpu_frac
    _child_metrics(out, before, after, wall_s, journal)
    out.check("every_post_answered_201",
              log.failed == 0 and len(log.ids) == jobs,
              f"{len(log.ids)} of {jobs} accepted, {log.failed} refused")
    out.check("every_job_done_exactly_once",
              len(log.job_s) == jobs and len(set(log.ids)) == jobs
              and after["work"]["completed"] == jobs,
              f"{len(log.job_s)} seen done, gateway completed "
              f"{after['work']['completed']}")
    counts = listing.get("counts", {})
    out.check("no_accepted_job_lost_across_sigkill",
              sweep.failed == 0 and sweep.gets == jobs
              and counts.get("done") == jobs and counts.get("total") == jobs,
              f"sweep: {sweep.gets} reads, {sweep.failed} not done; "
              f"reborn gateway counts {counts}")
    out.check("loadgen_not_the_bottleneck", gen.cpu_frac < MAX_CPU_FRAC,
              f"generator used {gen.cpu_frac:.2f} of a core "
              f"(limit {MAX_CPU_FRAC})")
    if rec is not None:
        _control_layer_metrics(out, before, after, wall_s)
    return out


def eval_digest(result: dict) -> str:
    """The self-digest an ``explore.eval`` result must carry: CRC32 over
    its own canonical (fn, params, seed, value) — recomputed here, not
    asked of the product."""
    payload = json.dumps({"fn": result["fn"], "params": result["params"],
                          "seed": result["seed"], "value": result["value"]},
                         sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


_SPIN = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while True:
    pass
"""


class KeepAwake:
    """One SCHED_IDLE busy loop per CPU for the length of a ``with``.

    The control workloads are conversations between two processes that
    block while the other works (explore_pump is a strict ping-pong). On
    a virtual machine every hop then wakes an idle vCPU, which the
    *host* has to schedule; measured here, that made identical
    explore_pump runs differ by up to 2x within an hour, and it is
    nothing the program under test does. Idle-priority spinners keep the
    vCPUs awake and are preempted the moment real work is runnable:
    interleaved with plain runs in a noisy hour, full-size explore_pump
    took 17.2-18.5 s instead of 18.2-28.4 s and a 6-second
    gateway_submit 5.4-7.0 s instead of 5.9-9.0 s; in a quiet hour they
    cost gateway_submit about 4 %. The simulations never idle, so they
    run without."""

    def __enter__(self) -> "KeepAwake":
        self.procs = [subprocess.Popen([sys.executable, "-c", _SPIN])
                      for _ in range(os.cpu_count() or 1)]
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


class PumpDriver:
    """A benchmark-defined ME algorithm: ``generations`` dependent
    generations of ``TASKS_PER_GENERATION`` evaluations. Generation g+1
    is centred on the best point of generation g, so it cannot be pushed
    before g is fully consumed — what an iterative ME algorithm blocks
    on. Speaks the pull-based driver protocol ``run_driver`` pumps."""

    FUNCTIONS = ("sphere", "rastrigin", "forecast")
    PARAMS = {"sphere": ("x", "y", "z"), "rastrigin": ("x", "y"),
              "forecast": ("bias", "damping", "nudging")}

    def __init__(self, seed: int, generations: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.generations = generations
        self.generation = 0
        self.seen = 0
        self.verified = 0
        self.bad: list = []
        self.centre = {fn: {p: 0.0 for p in names}
                       for fn, names in self.PARAMS.items()}
        self.best: dict = {}
        self.gen_s: list = []   # push -> last result of the generation
        self._pushed_at = 0.0

    def _mint(self) -> list:
        from repro.explore import make_eval_spec
        specs = []
        for cand in range(TASKS_PER_GENERATION):
            fn = self.FUNCTIONS[cand % len(self.FUNCTIONS)]
            params = {p: c + self.rng.uniform(-0.5, 0.5)
                      for p, c in self.centre[fn].items()}
            specs.append(make_eval_spec(
                fn, params, seed=self.seed, ops_budget=1000.0,
                tag={"gen": self.generation, "cand": cand}))
        # The generation clock starts when its specs are minted, just
        # before run_driver hands them to push_tasks.
        self._pushed_at = perf_counter()
        return specs

    def initial_tasks(self) -> list:
        return self._mint()

    def observe(self, spec: dict, result: Optional[dict]) -> None:
        self.seen += 1
        if (isinstance(result, dict) and result.get("fn") == spec.get("fn")
                and result.get("params") == spec.get("params")
                and result.get("digest") == eval_digest(result)):
            self.verified += 1
            fn = result["fn"]
            if fn not in self.best or result["value"] < self.best[fn][0]:
                self.best[fn] = (result["value"], result["params"])
        else:
            self.bad.append(spec.get("tag"))

    def next_tasks(self) -> list:
        if self.seen < (self.generation + 1) * TASKS_PER_GENERATION:
            return []
        self.gen_s.append(perf_counter() - self._pushed_at)
        self.generation += 1
        if self.generation >= self.generations:
            return []
        for fn, (_, params) in self.best.items():
            self.centre[fn] = dict(params)
        self.best = {}
        return self._mint()

    def finished(self) -> bool:
        return self.generation >= self.generations

    def summary(self) -> dict:
        return {"evals": self.seen, "generations": self.generation}


def explore_pump(seed: int, seconds: float, t_start: float,
                 rec: Optional[Recorder], out_dir: str) -> Outcome:
    from repro.control import GatewayClient
    from repro.explore import ExploreQueue, run_driver
    import_s = perf_counter() - t_start

    out = Outcome()
    generations = max(20, int(GENERATIONS * seconds / RUN_SECONDS))
    journal = os.path.join(out_dir, "explore.journal")
    trace_out = os.path.join(out_dir, "spans.json") if rec is not None else None
    gateway, client = _control_setup(
        out, journal, trace_out, import_s,
        lambda port: GatewayClient(f"127.0.0.1:{port}", timeout=10.0))
    try:
        queue = ExploreQueue(client, batch=True, poll=0.002)
        if rec is not None:
            queue.push_tasks = rec.wrap(queue.push_tasks, "explore.queue.push")
            queue.pop_results = rec.wrap(queue.pop_results, "explore.queue.pop")
        driver = PumpDriver(seed, generations)
        with KeepAwake():
            before = gateway.stats()
            c0, t0 = process_time(), perf_counter()
            summary = run_driver(driver, queue, timeout=170.0,
                                 poll_timeout=10.0)
            wall_s, client_cpu_s = perf_counter() - t0, process_time() - c0
            after = gateway.stats()
        queue_stats = queue.stats()
        client.close()
    finally:
        gateway.kill()

    tasks = generations * TASKS_PER_GENERATION
    out.attempted = tasks
    out.failed = (tasks - driver.verified) + after["work"]["results_rejected"]
    m = out.metrics
    out.end_to_end(wall_s, after["peak_rss_mb"])
    latencies = [ms / 1000.0 for ms in queue.pop_latencies_ms]
    out.timing("job_p50_ms", latencies, 0.50)
    out.timing("job_p99_ms", latencies, 0.99)
    out.timing("gen_p50_ms", driver.gen_s, 0.50)
    m["loadgen.cpu_frac"] = client_cpu_s / wall_s
    _child_metrics(out, before, after, wall_s, journal)
    out.check("every_result_digest_verifies",
              driver.verified == tasks and not driver.bad,
              f"{driver.verified} of {tasks} verified, bad tags "
              f"{driver.bad[:3]}")
    out.check("popped_equals_pushed",
              queue_stats["pushed"] == tasks and queue_stats["popped"] == tasks
              and queue_stats["outstanding"] == 0 and not summary["timed_out"],
              str(queue_stats))
    out.check("no_result_rejected",
              after["work"]["results_rejected"] == 0
              and after["work"]["completed"] == tasks,
              f"gateway completed {after['work']['completed']}, rejected "
              f"{after['work']['results_rejected']}")
    if rec is not None:
        _control_layer_metrics(out, before, after, wall_s)
        for name in ("explore.queue.push", "explore.queue.pop"):
            out.layer(name, *rec.layer(name))
        rec.write(os.path.join(out_dir, "spans.client.json"))
    return out


RUNNERS = {
    "sc98_fig2": sc98_fig2,
    "pool_converge": pool_converge,
    "gateway_submit": gateway_submit,
    "explore_pump": explore_pump,
}
