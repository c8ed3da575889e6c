"""The paper's claims as one table, run by ``repro claims``.

Every result EXPERIMENTS.md states is one :class:`Claim`: Fig. 2–4, the
§5.6 Java numbers, the §7 criteria, ablations A1–A8, the §2.3 open
question and seed robustness. A claim names the paper section and
number it reproduces, a seeded run, the size tier-1 runs it at, and a
predicate: named checks, each one comparison with the constants of the
paper's band. A reduced size cuts the host scale or the seed count,
never a band. Nothing is timed, so a run's values depend on its seed
and size alone, and a run that yields NaN, ``None`` or an empty series
fails its claim whatever the predicate says.

``repro claims --scale 1 --out benchmarks/out_fullscale`` writes
``claims.json`` (the EXPERIMENTS.md tables are rendered from it by
:func:`render_tables`), the figure texts and the A3 table.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.component import Component, Send, SetTimer
from ..core.forecasting import ForecasterBank
from ..core.gossip import (GOS_SYNC, ComparatorRegistry, GossipAgent,
                           GossipServer, StateRecord, StateStore)
from ..core.gossip.server import T_SYNC
from ..core.linguafranca.messages import Message
from ..core.services.logging import LoggingServer
from ..core.services.scheduler import QueueWorkSource, SchedulerServer
from ..core.simdriver import SimWorld
from ..infra.condor import CondorPool
from ..infra.nt import NTSupercluster
from ..infra.speeds import JAVA_INTERP_IOPS, JAVA_JIT_IOPS, speed_for
from ..ramsey.client import ModelEngine, RamseyClient
from ..ramsey.graphs import Coloring, OpCounter, count_mono_cliques
from ..ramsey.heuristics import Annealing, MinConflicts, TabuSearch
from ..ramsey.parallel import ParallelEvaluator, ParallelTabuCoordinator
from ..ramsey.tasks import make_unit, unit_generator
from ..simgrid.host import Host
from ..simgrid.load import (ComposedLoad, ConstantLoad, EventSchedule,
                            MeanRevertingLoad, ScheduledEvent)
from .metrics import collect_rate_series
from .report import (render_fig2, render_fig3a, render_fig3b,
                     render_grid_criteria, render_headlines, sparkline)
from .sc98 import SC98Config, build_sc98, clock_to_offset, offset_to_clock
from .stats import bootstrap_ci, seed_sweep, shape_metrics

__all__ = ["CLAIMS", "run_claims", "render_tables", "write_outputs"]

INFRAS = {"unix", "condor", "nt", "globus", "legion", "netsolve", "java"}


@dataclass(frozen=True)
class Claim:
    """One row of EXPERIMENTS.md."""

    id: str
    section: str
    #: The paper's number, as quoted.
    paper: str
    #: ``run(scale=..., seed=...)`` -> JSON-safe values.
    run: Callable[..., dict]
    #: values -> {check: verdict}; the claim holds when every check does.
    holds: Callable[[dict], dict]
    #: values -> the "this run" cell of the EXPERIMENTS.md table.
    show: Callable[[dict], str]
    seed: object
    #: The run's size; ``None`` takes the shared SC98 ``--scale``.
    scale: Optional[float] = 1.0
    #: What tier-1 overrides (``scale`` or ``seed``) to run it small.
    reduced: dict = field(default_factory=dict)


def _well_formed(value) -> bool:
    """No NaN, no ``None``, no empty series anywhere in a run's values."""
    if isinstance(value, (dict, list, tuple)):
        items = value.values() if isinstance(value, dict) else value
        return len(value) > 0 and all(_well_formed(v) for v in items)
    if isinstance(value, float):
        return not math.isnan(value)
    return value is not None


def _judge(claim: Claim, values: dict) -> dict:
    if not _well_formed(values):
        return {"the run yields no NaN, None or empty series": False}
    try:
        return {name: bool(ok) for name, ok in claim.holds(values).items()}
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return {f"the predicate evaluates ({exc!r})": False}


def run_claims(scale: float = 1.0, reduced: bool = False,
               claims: Optional[list[Claim]] = None) -> dict:
    """Run every claim; ``scale`` is the shared SC98 run's host scale,
    ``reduced`` applies each claim's tier-1 size instead."""
    records = []
    for claim in CLAIMS if claims is None else claims:
        size = {"scale": scale if claim.scale is None else claim.scale,
                "seed": claim.seed}
        if reduced:
            size.update(claim.reduced)
        values = json.loads(json.dumps(claim.run(**size)))
        checks = _judge(claim, values)
        records.append({
            "id": claim.id, "section": claim.section, "paper": claim.paper,
            "scale": size["scale"], "seed": size["seed"], "values": values,
            "checks": checks, "holds": all(checks.values())})
    return {"host_cpus": os.cpu_count(), "claims": records}


def _e(x: float) -> str:
    """2.37e9, not 2.37e+09."""
    mantissa, exponent = f"{x:.2e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def render_tables(doc: dict) -> str:
    """The EXPERIMENTS.md block: one row per claim, then the
    per-infrastructure figures of the shared SC98 run."""
    by_id = {c.id: c for c in CLAIMS}
    recs = {r["id"]: r for r in doc["claims"]}
    held = sum(r["holds"] for r in doc["claims"])
    f2 = recs["F2"]
    lines = [
        f"{held} of {len(recs)} claims hold. SC98 run: scale "
        f"{f2['scale']:g}, seed {f2['seed']}; host_cpus "
        f"{doc['host_cpus']}.",
        "",
        "| id | § | paper | this run | holds |",
        "|---|---|---|---|---|",
    ]
    for r in doc["claims"]:
        try:
            cell = by_id[r["id"]].show(r["values"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            cell = "(no value)"
        lines.append(f"| {r['id']} | {r['section']} | {r['paper']} | "
                     f"{cell} | {'yes' if r['holds'] else '**no**'} |")
    rate, hosts = recs["F3a"]["values"], recs["F3b"]["values"]
    cvs = recs["F3c"]["values"]["part_cvs"]
    lines += ["", "| infrastructure | peak iops | mean iops | max hosts "
              "| mean hosts | rate CV |", "|---|---|---|---|---|---|"]
    for name in sorted(rate["peak"], key=rate["peak"].get, reverse=True):
        lines.append(
            f"| {name} | {_e(rate['peak'][name])} | {_e(rate['mean'][name])} "
            f"| {hosts['max'][name]:.0f} | {hosts['mean'][name]:.1f} "
            f"| {cvs[name]:.3f} |")
    lines += ["", "Each claim's checks:", ""]
    for r in doc["claims"]:
        lines.append(f"- **{r['id']}**: " + "; ".join(
            name if ok else f"{name} (**fails**)"
            for name, ok in r["checks"].items()))
    return "\n".join(lines)


def write_outputs(doc: dict, out: str) -> list[str]:
    """``claims.json``, the SC98 figure texts and the A3 table."""
    os.makedirs(out, exist_ok=True)
    f2 = next(r for r in doc["claims"] if r["id"] == "F2")
    files = {"claims.json": json.dumps(doc, indent=1, ensure_ascii=False),
             "ablation_a3_forecasters.txt": a3_table()[0]}
    files.update(_figure_texts(f2["scale"], f2["seed"]))
    paths = []
    for name, text in sorted(files.items()):
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
    return paths


# -- Figures 2-4 and §7: one shared SC98 run per (scale, seed) ---------------

@functools.lru_cache(maxsize=1)
def _sc98(scale: float, seed: int):
    world = build_sc98(SC98Config(scale=scale, seed=seed))
    return world, world.run()


def _sc98_part(part: str):
    """An SC98 claim's run: its part of the shared run's values."""
    return lambda scale, seed: _sc98_values(scale, seed)[part]


def _sc98_values(scale: float, seed: int) -> dict:
    world, results = _sc98(scale, seed)
    s, cfg, shape = results.series, results.config, shape_metrics(results)
    total, _ = collect_rate_series(
        world.core.loggers, start=0.0, width=cfg.bucket, n=cfg.n_buckets)
    peak_t, peak = results.peak()
    rates, hosts, skip = s.rate_by_infra, s.hosts_by_infra, len(s.times) // 6

    def churn(name):  # host-count CV past the first sixth of the run
        a = hosts[name][skip:]
        return float(a.std() / max(a.mean(), 1e-9))

    speeds = [h.spec.speed for a in world.adapters for h in a.hosts]
    stacked = np.sum(list(rates.values()), axis=0)
    return {
        "F2": {"scale": scale, "peak": peak, "peak_t": peak_t,
               "dip": results.judging_dip(), "recovery": results.recovery(),
               "regenerates": bool(np.allclose(total, s.total_rate))},
        "F3a": {"mean": {n: float(np.mean(r)) for n, r in rates.items()},
                "peak": {n: float(np.max(r)) for n, r in rates.items()}},
        "F3b": {"scale": scale,
                "max": {n: float(np.max(h)) for n, h in hosts.items()},
                "mean": {n: float(np.mean(h)) for n, h in hosts.items()},
                "condor_cv": churn("condor"), "nt_cv": churn("nt"),
                "java_min": float(hosts["java"].min()),
                "java_max": float(hosts["java"].max())},
        "F3c": {"total_cv": shape.total_cv, "part_cvs": shape.part_cvs,
                "parts_sum": bool(np.allclose(stacked, s.total_rate,
                                              rtol=1e-9))},
        "§7": {"infrastructures": sum(1 for r in rates.values()
                                      if np.sum(r) > 0),
               "delivering": shape.delivering, "total_cv": shape.total_cv,
               "median_part_cv": shape.median_part_cv,
               "max_part_cv": max(shape.part_cvs.values()),
               "reclamations": results.condor_reclamations,
               "slowest": min(speeds), "fastest": max(speeds)},
    }


def _fig2_holds(v):
    s, peak = v["scale"], v["peak"]
    return {
        "the logs regenerate the series": v["regenerates"],
        "0.55·2.39e9·scale < peak < 1.45·2.39e9·scale":
            0.55 * 2.39e9 * s < peak < 1.45 * 2.39e9 * s,
        "09:20 <= peak time <= 10:40":
            clock_to_offset(9, 20) <= v["peak_t"] <= clock_to_offset(10, 40),
        "dip < 0.62·peak": v["dip"] < 0.62 * peak,
        "recovery > 1.4·dip": v["recovery"] > 1.4 * v["dip"],
        "recovery < 1.02·peak": v["recovery"] < 1.02 * peak,
    }


def _fig3a_holds(v):
    m = v["mean"]
    return {
        "all seven infrastructures delivered": set(m) == INFRAS,
        "every mean rate > 0": all(x > 0 for x in m.values()),
        "mean rate unix > condor": m["unix"] > m["condor"],
        "mean rate nt > condor": m["nt"] > m["condor"],
        "mean rate condor > netsolve": m["condor"] > m["netsolve"],
        "mean rate netsolve < 0.1·nt": m["netsolve"] < 0.1 * m["nt"],
        "mean rate java < 0.1·nt": m["java"] < 0.1 * m["nt"],
        "mean rate max/min > 30": max(m.values()) / min(m.values()) > 30,
    }


def _fig3b_holds(v):
    mx = v["max"]
    return {
        "all seven infrastructures have hosts": set(mx) == INFRAS,
        "max hosts condor >= 0.75·nt": mx["condor"] >= mx["nt"] * 0.75,
        "max hosts condor > legion": mx["condor"] > mx["legion"],
        "max hosts nt > globus": mx["nt"] > mx["globus"],
        "max hosts netsolve <= max(3·scale, 1) + 0.5":
            mx["netsolve"] <= max(3 * v["scale"], 1) + 0.5,
        "condor's host-count CV > nt's": v["condor_cv"] > v["nt_cv"],
        "java max > 0": v["java_max"] > 0,
        "java min < 0.5·java max": v["java_min"] < 0.5 * v["java_max"],
    }


def _fig3c_holds(v):
    cvs = sorted(v["part_cvs"].values())
    return {
        "the parts sum to the total": v["parts_sum"],
        "total CV < median part CV": v["total_cv"] < cvs[len(cvs) // 2],
        "total CV < 0.5·max part CV": v["total_cv"] < 0.5 * max(cvs),
    }


def _figure_texts(scale: float, seed: int) -> dict:
    results = _sc98(scale, seed)[1]
    s, shape = results.series, shape_metrics(results)
    fig3c = ["Figure 3c/4c: total rate (compare Fig. 2) vs constituents",
             f"  total  : [{sparkline(s.total_rate)}]  CV={shape.total_cv:.3f}",
             f"  (log)  : [{sparkline(s.total_rate, log=True)}]"]
    for name in sorted(s.rate_by_infra):
        fig3c.append(f"  {name:>7}: [{sparkline(s.rate_by_infra[name])}]"
                     f"  CV={shape.part_cvs[name]:.3f}")
    fig3c += ["", render_grid_criteria(results)]
    return {
        "fig2_sustained.txt":
            render_fig2(results) + "\n\n" + render_headlines(results),
        "fig3a_4a_by_infra.txt":
            render_fig3a(results) + "\n\n" + render_fig3a(results, log=True),
        "fig3b_4b_hosts.txt":
            render_fig3b(results) + "\n\n" + render_fig3b(results, log=True),
        "fig3c_4c_total.txt": "\n".join(fig3c),
    }


# -- seed robustness ----------------------------------------------------------

def _seeds(scale, seed):
    outcomes = seed_sweep(seed, scale=scale)
    dips = [o.dip_ratio for o in outcomes]
    recoveries = [o.recovery_ratio for o in outcomes]
    return {"dip_ratio": dips, "recovery_ratio": recoveries,
            "smoother": [o.total_cv < o.median_part_cv for o in outcomes],
            "dip_ci": bootstrap_ci(dips), "recovery_ci": bootstrap_ci(recoveries)}


def _seeds_holds(v):
    dips, recs = v["dip_ratio"], v["recovery_ratio"]
    return {
        "every seed's dip/peak < 0.75": all(d < 0.75 for d in dips),
        "every seed's recovery > dip": all(r > d for r, d in zip(recs, dips)),
        "every seed's total CV < median part CV": all(v["smoother"]),
        "|mean dip/peak − 1.1/2.39| < max(0.2, 2·spread)":
            abs(v["dip_ci"][0] - 1.1 / 2.39) < max(0.2, 2 * (max(dips) - min(dips))),
        "|mean recovery/peak − 2.0/2.39| < 0.25":
            abs(v["recovery_ci"][0] - 2.0 / 2.39) < 0.25,
    }


# -- §5.6: the Java applet's two speeds ---------------------------------------

def _java(scale, seed):
    ops = OpCounter()
    TabuSearch(17, 4, np.random.default_rng(seed), ops=ops).run(
        max_steps=200, target=-1)
    return {"interp": JAVA_INTERP_IOPS, "jit": JAVA_JIT_IOPS,
            "interp_class": speed_for("java_interp"),
            "jit_class": speed_for("java_jit"),
            "mpp_node": speed_for("unix_mpp_node"), "kernel_ops": ops.ops}


def _java_holds(v):
    return {
        "interpreted == 111,616": v["interp"] == 111_616.0,
        "JIT == 12,109,720": v["jit"] == 12_109_720.0,
        "JIT/interpreted == 108.5 ± 1%":
            abs(v["jit"] / v["interp"] - 108.5) <= 0.01 * 108.5,
        "java_interp host class == interpreted": v["interp_class"] == v["interp"],
        "java_jit host class == JIT": v["jit_class"] == v["jit"],
        "JIT < an MPP node": v["jit"] < v["mpp_node"],
        "the real kernel metered ops > 0": v["kernel_ops"] > 0,
    }


# -- A1 and A4: gossip worlds -------------------------------------------------

class _Worker(Component):
    """One registered state type kept in sync through the pool; a chatty
    worker writes fresh state before every poll."""

    def __init__(self, name, well_known, mtype="STATE", chatty=False,
                 register_period=60):
        super().__init__(name)
        self.well_known = well_known
        self.mtype = mtype
        self.chatty = chatty
        self.register_period = register_period
        self.writes = 0

    def on_start(self, now):
        self.store = StateStore(self.contact)
        self.store.register(self.mtype, initial={"v": 0}, now=now)
        self.agent = GossipAgent(self.store, self.well_known,
                                 register_period=self.register_period)
        return self.agent.on_start(now, self.contact)

    def on_message(self, message, now):
        if message.mtype == "GOS_POLL" and self.chatty:
            self.writes += 1
            self.store.set_local(self.mtype, {"v": self.writes}, now)
        if GossipAgent.handles(message.mtype):
            return self.agent.on_message(message, now, self.contact)
        return []

    def on_timer(self, key, now):
        if GossipAgent.handles_timer(key):
            return self.agent.on_timer(key, now, self.contact)
        return []


def _timeouts_world(dynamic: bool, seed: int) -> dict:
    """Six live components over a WAN whose storms inflate latency ~6x
    for 5 of every 20 minutes; any suspicion or eviction is a misjudged
    availability."""
    duration = 3 * 3600.0
    storms = [ScheduledEvent(s, s + 300, factor=0.15, ramp=120)
              for s in range(900, int(duration), 1200)]
    w = SimWorld(seed, base_latency=4.0, jitter=0.4,
                 congestion_model=ComposedLoad(
                     MeanRevertingLoad(mean=0.9, sigma=0.002),
                     EventSchedule(storms)))
    w.network.start()
    gossip = GossipServer(
        "gos0", ["gos0/gossip"], comparators=ComparatorRegistry(),
        poll_period=30.0,
        default_timeout=5.0,  # tuned for the quiet network's ~10s responses
        dead_factor=2.0, dynamic_timeouts=dynamic)
    w.spawn(w.host("gos0", site="west"), "gossip", gossip)
    for i in range(6):
        w.spawn(w.host(f"w{i}", site="east"), "app",
                _Worker(f"w{i}", ["gos0/gossip"], register_period=120))
    w.env.run(until=duration)
    st = gossip.stats
    return {"suspicions": st.suspicions, "refutations": st.refutations,
            "evictions": st.evictions,
            "misjudged": st.suspicions + st.evictions}


class _PairwiseGossip(GossipServer):
    """The SC98 prototype: a polled component's records are compared
    against every other component's last-seen records, pairwise."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.component_state = {}  # contact -> {mtype: last-seen record}

    def _on_state(self, message, now):
        mine = self.component_state.setdefault(message.sender, {})
        for body in message.body.get("records", []):
            rec = StateRecord.from_body(body)
            for other, theirs in self.component_state.items():
                other_rec = theirs.get(rec.mtype)
                if other != message.sender and other_rec is not None:
                    self.stats.comparisons += 1
                    self.comparators.compare(rec, other_rec)
            mine[rec.mtype] = rec
        return super()._on_state(message, now)


class _FullSyncGossip(GossipServer):
    """The pre-digest sync round: every freshest record to one random
    pool peer."""

    def on_timer(self, key, now):
        if key != T_SYNC:
            return super().on_timer(key, now)
        effects = [SetTimer(T_SYNC, self.sync_period)]
        peers = [p for p in self.pool_members() if p != self.contact]
        if self.freshest and peers:
            peer = peers[int(self.runtime.random() * len(peers)) % len(peers)]
            records = [self.freshest[t].to_body() for t in sorted(self.freshest)]
            effects.insert(0, Send(peer, Message(
                mtype=GOS_SYNC, sender=self.contact, body={"records": records})))
        return effects


def _gossip_world(n: int, cls: type, pool: int, seed: int) -> int:
    """Comparator calls in 1,800 s. ``pool=1``: one Gossip polls N
    workers that all write before every poll (the poll plane).
    ``pool=2``: two Gossips sync N registered types, 4 of whose writers
    keep writing (the sync plane)."""
    w = SimWorld(seed, jitter=0.1)
    well_known = [f"gos{g}/gossip" for g in range(pool)]
    gossips = []
    for g in range(pool):
        gossips.append(cls(f"gos{g}", well_known,
                           comparators=ComparatorRegistry(), poll_period=30.0,
                           sync_period=1e9 if pool == 1 else 10.0))
        w.spawn(w.host(f"gos{g}"), "gossip", gossips[-1])
    for i in range(n):
        w.spawn(w.host(f"w{i}"), "app",
                _Worker(f"w{i}", well_known, chatty=True) if pool == 1 else
                _Worker(f"w{i}", well_known, mtype=f"STATE_{i:03d}",
                        chatty=i < 4))
    w.env.run(until=1800.0)
    if pool == 1:
        return gossips[0].stats.comparisons
    return sum(g.stats.sync_comparisons for g in gossips)


def _gossip_scale(scale, seed):
    ns = [4, 8, 16, 32]
    curves = {
        "pairwise": [_gossip_world(n, _PairwiseGossip, 1, seed) for n in ns],
        "freshest": [_gossip_world(n, GossipServer, 1, seed) for n in ns],
        "full_sync": [_gossip_world(n, _FullSyncGossip, 2, seed) for n in ns],
        "digest": [_gossip_world(n, GossipServer, 2, seed) for n in ns],
    }
    # Least-squares slope of log(count) vs log(n).
    exponent = {name: float(np.polyfit(np.log(ns), np.log(np.maximum(c, 1)), 1)[0])
                for name, c in curves.items()}
    return {"n": ns, **curves, "exponent": exponent}


def _gossip_scale_holds(v):
    x = v["exponent"]
    return {
        "pairwise exponent > 1.6": x["pairwise"] > 1.6,
        "freshest exponent < 1.4": x["freshest"] < 1.4,
        "full-sync exponent > 0.6": x["full_sync"] > 0.6,
        "digest exponent < 0.5": x["digest"] < 0.5,
        "digest < full-sync < pairwise exponent":
            x["digest"] < x["full_sync"] < x["pairwise"],
        "full-sync >= digest comparisons at every N":
            all(f >= d for f, d in zip(v["full_sync"], v["digest"])),
    }


# -- A2, A5, A7, A8: a service host, a scheduler, a logger, model clients -----

class _ServiceWorld(SimWorld):
    """A 1e7-iops service host carrying the logger and (given ``work``)
    one scheduler; model clients report to both."""

    def __init__(self, seed: int, work=None, jitter=0.1, **sched):
        super().__init__(seed, jitter=jitter)
        self.svc = self.server("svc")
        self.sched = None
        if work is not None:
            self.sched = SchedulerServer("sched", work, report_period=60,
                                         **sched)
            self.spawn(self.svc, "sched", self.sched)
        self.log = LoggingServer("log")
        self.spawn(self.svc, "log", self.log)

    def server(self, name: str, speed: float = 1e7) -> Host:
        return self.host(name, speed=speed, load_model=ConstantLoad(1.0))

    def client(self, name, infra, seed, schedulers=("svc/sched",), **kw):
        return RamseyClient(name, schedulers=list(schedulers),
                            engine=ModelEngine(), infra=infra,
                            loggers=["svc/log"], work_period=60,
                            report_period=60, seed=seed, **kw)


def _condor_sched_world(in_pool: bool, seed: int) -> dict:
    """4 h of a churning 16-workstation Condor pool of clients whose
    two schedulers sit inside it (dying with every reclamation and
    resubmitted when the machine idles) or on dedicated hosts."""
    w = _ServiceWorld(seed, jitter=0.2)
    w.network.start()  # the logger's start schedules nothing
    # ~5 min units: clients keep returning to a live scheduler.
    work = QueueWorkSource(generator=unit_generator(43, 5, ops_budget=1e9))
    contacts, clients = [], []

    def factory(host, infra, idx):
        clients.append(w.client(f"{infra}-{idx}", infra, idx,
                                schedulers=contacts, hello_retry=45,
                                sched_dead_factor=2.0))
        return clients[-1]

    def scheduler(i):
        return SchedulerServer(f"sched{i}", work, report_period=60,
                               reap_period=120)

    pool = CondorPool(w.env, w.network, w.streams, factory, n_hosts=16,
                      idle_mean=900, busy_mean=1800, start_delay=15)
    if in_pool:
        pool.deploy()

        def keep(host, i, _tag):
            """Run the scheduler whenever the workstation is up; look
            again 30 s after it dies (the owner reclaims it) or, while
            the owner holds the machine, 30 s later."""
            later = functools.partial(keep, host, i)
            if host.up:
                w.spawn(host, "sched", scheduler(i)).process.callbacks.append(
                    lambda _handle: w.env.call(later, 30))
            else:
                w.env.call(later, 30)

        for i in range(2):
            host = pool.hosts[i]
            contacts.append(f"{host.name}/sched")
            w.env.call(functools.partial(keep, host, i), urgent=True)
    else:
        for i in range(2):
            w.spawn(w.server(f"sched{i}"), "sched", scheduler(i))
            contacts.append(f"sched{i}/sched")
        pool.deploy()
    w.env.run(until=4 * 3600.0)
    return {"ops": sum(r.data["ops"] for r in w.log.by_kind("perf")),
            "switches": sum(c._sched_idx for c in clients),
            "reclamations": pool.reclamations}


def _lsf_sleep_world(sleep_max: float, seed: int) -> dict:
    """48 NT nodes under LSF's 45 s idle-kill threshold for an hour:
    kills, time to full deployment, and the worst 10 s hello burst."""
    work = QueueWorkSource(generator=unit_generator(43, 5, ops_budget=1e12))
    w = _ServiceWorld(seed, work)
    hellos = []
    handle = w.sched.on_message

    def counting(message, now):
        if message.mtype == "SCH_HELLO":
            hellos.append(now)
        return handle(message, now)

    w.sched.on_message = counting
    nt = NTSupercluster(
        w.env, w.network, w.streams,
        lambda host, infra, idx: w.client(f"nt-{idx}", infra, idx),
        clusters={"ncsa": 48}, startup_sleep_max=sleep_max,
        lsf_kill_threshold=45.0, mtbf=1e12)
    nt.deploy()
    full_at = [None]

    def watch(_tag):
        if nt.active_host_count() < 48:
            w.env.call(functools.partial(watch), 5)
        else:
            full_at[0] = w.env.now

    w.env.call(functools.partial(watch), urgent=True)
    w.env.run(until=3600)
    burst = max((sum(1 for t in hellos if s <= t < s + 10)
                 for s in range(0, 3600, 10)), default=0)
    return {"kills": nt.lsf_kills, "full_at": full_at[0], "burst": burst}


def _migration_world(migration: bool, seed: int) -> float:
    """Makespan of 12 equal units (~10 min on a fast client) over five
    fast clients and one 10x slower straggler."""
    units = [make_unit(f"u{i}", 43, 5, heuristic="tabu", seed=i,
                       ops_budget=3e9) for i in range(12)]
    work = QueueWorkSource(units)
    w = _ServiceWorld(seed, work, reap_period=240, min_rate_samples=2,
                      migrate_fraction=0.3 if migration else 0.0)
    for i in range(6):
        h = w.server(f"cli{i}", speed=5e5 if i == 5 else 5e6)
        h.start()
        w.spawn(h, "cli", w.client(f"cli{i}", "unix", i))
    while len(work.completed) < len(units) and w.env.now < 48 * 3600.0:
        w.env.run(until=w.env.now + 120)
    return w.env.now if len(work.completed) == len(units) else math.inf


def _universe_world(universe: str, seed: int) -> dict:
    """8 h of 12 workstations in two type classes running ~8 min units."""
    work = QueueWorkSource(generator=unit_generator(43, 5, ops_budget=1.5e9))
    w = _ServiceWorld(seed, work, reap_period=120,
                      migrate_fraction=0.0)  # isolate the universes
    pool = CondorPool(
        w.env, w.network, w.streams,
        lambda host, infra, idx: w.client(f"{infra}-{idx}", infra, idx),
        n_hosts=12, idle_mean=900, busy_mean=600, start_delay=15,
        universe=universe, n_types=2)
    pool.deploy()
    w.env.run(until=8 * 3600.0)
    return {"units": w.sched.stats.units_completed,
            "reclamations": pool.reclamations,
            "checkpoint_migrations": pool.checkpoint_migrations,
            "checkpoints_lost": pool.checkpoints_lost}


# -- A3: the forecaster bank --------------------------------------------------

def _traces(seed: int, n: int = 800) -> dict:
    rng = np.random.default_rng(seed)
    traces = {"stationary": 10 + rng.normal(0, 1, n)}
    regime = np.concatenate([
        np.full(n // 4, 2.0), np.full(n // 4, 12.0),
        np.full(n // 4, 5.0), np.full(n - 3 * (n // 4), 20.0)])
    traces["regime-switch"] = regime + rng.normal(0, 0.5, n)
    traces["trend"] = np.linspace(1, 20, n) + rng.normal(0, 0.5, n)
    spikes = 5 + rng.normal(0, 0.5, n)
    mask = rng.random(n) < 0.05
    spikes[mask] *= rng.uniform(3, 8, mask.sum())
    traces["spiky"] = spikes
    return {k: np.maximum(v, 0.01) for k, v in traces.items()}


def a3_table(seed: int = 5) -> tuple[str, dict, dict]:
    """The committed A3 table, each trace's chooser regret (chooser MAE
    over the best single method's), and its best single method."""
    lines = ["Ablation A3: adaptive forecaster selection vs single methods",
             ""]
    regrets, best_methods = {}, {}
    for name, trace in _traces(seed).items():
        bank, err, scored = ForecasterBank(), 0.0, 0
        for x in trace:
            fc = bank.forecast()
            if fc is not None:
                err += abs(fc.value - float(x))
                scored += 1
            bank.update(float(x))
        mae, method_errors = err / scored, bank.errors()
        best = min(method_errors.values())
        worst = max(e for e in method_errors.values() if np.isfinite(e))
        regrets[name] = mae / best
        lines.append(f"  {name:>13}: chooser MAE {mae:.3f} | best single "
                     f"{best:.3f} | worst single {worst:.3f} | "
                     f"regret {mae / best:.2f}x")
        best_methods[name] = min(method_errors, key=method_errors.get)
    lines.append("")
    lines.append("best single method differs per trace: "
                 + ", ".join(f"{t}->{m}" for t, m in best_methods.items()))
    lines.append("no fixed choice is safe; the adaptive chooser is near-best "
                 "everywhere.")
    return "\n".join(lines), regrets, best_methods


# -- A6: heuristics vs exhaustive enumeration ---------------------------------

def _witnesses(k: int, n: int) -> int:
    """Colorings of K_k with no monochromatic K_n, by full enumeration."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return sum(
        count_mono_cliques(Coloring.from_edges(
            k, (e for i, e in enumerate(edges) if (bits >> i) & 1)), n) == 0
        for bits in range(1 << len(edges)))


def _heuristics(scale, seed):
    def search(cls, k, n, s, steps, **kw):
        ops = OpCounter()
        h = cls(k, n, np.random.default_rng(seed + s), ops=ops, **kw)
        h.run(max_steps=steps, **({"target": -1} if k == 43 else {}))
        return {"found": h.found, "steps": h.steps, "ops": ops.ops}

    k43 = search(TabuSearch, 43, 5, 0, 30, candidates=8)
    return {
        "k5": _witnesses(5, 3), "k6": _witnesses(6, 3),
        "k5_tabu": [search(TabuSearch, 5, 3, s, 5000) for s in range(10)],
        "k43_steps": k43["steps"], "k43_ops_per_step": k43["ops"] / k43["steps"],
        "k12": {name: [search(cls, 12, 4, s, 30_000) for s in range(3)]
                for name, cls in (("tabu", TabuSearch), ("anneal", Annealing),
                                  ("minconf", MinConflicts))},
        "k12_tabu_99": search(TabuSearch, 12, 4, 99, 30_000)["found"],
    }


def _heuristics_holds(v):
    return {
        "tabu finds a K_5 witness from every seed": all(
            r["found"] for r in v["k5_tabu"]),
        "K_5 witnesses > 0": v["k5"] > 0,
        "K_6 witnesses == 0": v["k6"] == 0,
        "mean tabu steps to a K_5 witness < 1000":
            np.mean([r["steps"] for r in v["k5_tabu"]]) < 1000,
        "the K_43 kernel ran >= 30 steps": v["k43_steps"] >= 30,
        "every heuristic finds a K_12 witness from every seed":
            all(r["found"] for runs in v["k12"].values() for r in runs),
        "tabu finds a K_12 witness from seed 99": v["k12_tabu_99"],
    }


# -- §2.3: a barrier-per-move parallel search under fluctuation ---------------

def _barrier_regime(base_latency: float, jitter: float, storms: bool,
                    seed: int) -> dict:
    rounds = 150
    congestion = None
    if storms:
        # Short, frequent storms: a WAN run lasts well under a minute.
        events = [ScheduledEvent(s, s + 15, factor=0.15, ramp=5)
                  for s in range(10, 7200, 35)]
        congestion = ComposedLoad(
            MeanRevertingLoad(mean=0.85, sigma=0.003), EventSchedule(events))
    w = SimWorld(seed, base_latency=base_latency, jitter=jitter,
                 congestion_model=congestion, congestion_period=2.0)
    w.network.start()
    contacts = [f"eval{i}/eval" for i in range(4)]
    for i in range(4):
        w.spawn(w.host(f"eval{i}", site=f"site{i}"), "eval",
                ParallelEvaluator(f"eval{i}"))
    coord_host = w.host("coord", site="home")
    # K_6 / n=3 cannot terminate early: every regime does all rounds.
    coord = ParallelTabuCoordinator("coord", 6, 3, contacts,
                                    candidates_per_eval=8, seed=seed,
                                    tenure=4,  # K_6 has only 15 edges
                                    max_rounds=rounds, default_timeout=10.0)
    w.spawn(coord_host, "coord", coord)
    w.env.run(until=4 * 3600.0)
    done = coord.finished_at
    return {"rounds_closed": coord.rounds_closed, "finished": done is not None,
            "rounds_per_sec": None if done is None else rounds / max(done, 1e-9),
            "stragglers": coord.straggler_rounds, "moves": coord.moves_applied}


def _barrier(scale, seed):
    return {"lan": _barrier_regime(0.002, 0.05, False, seed),
            "wan": _barrier_regime(0.08, 0.3, False, seed),
            "stormy": _barrier_regime(0.08, 0.3, True, seed)}


def _barrier_holds(v):
    lan, wan, stormy = v["lan"], v["wan"], v["stormy"]
    return {
        "every regime closes 150 rounds":
            all(r["rounds_closed"] == 150 for r in v.values()),
        "every regime finishes": all(r["finished"] for r in v.values()),
        "LAN rounds/s > 5·WAN":
            lan["rounds_per_sec"] > 5 * wan["rounds_per_sec"],
        "stormy rounds/s <= 1.05·WAN":
            stormy["rounds_per_sec"] <= wan["rounds_per_sec"] * 1.05,
        "every regime's moves > 0.5·150":
            min(r["moves"] for r in v.values()) > 150 * 0.5,
    }


def _pair(world, *arms):
    """A run comparing the arms of an ablation, one world per arm."""
    return lambda scale, seed: {name: world(arm, seed) for name, arm in arms}


SC98 = {"seed": 1998, "scale": None, "reduced": {"scale": 0.15}}

CLAIMS: list[Claim] = [
    Claim("F2", "§4.1, Fig. 2", "peak 2.39e9 iops at 09:51–09:56; 1.1e9 at "
          "the 11:00 judging; 2.0e9 by the 11:10 demo",
          _sc98_part("F2"), _fig2_holds,
          lambda v: f"peak {_e(v['peak'])} at {offset_to_clock(v['peak_t'])}; "
                    f"dip {_e(v['dip'])}; recovery {_e(v['recovery'])}", **SC98),
    Claim("F3a", "Fig. 3a/4a", "NT and Unix dominate, Condor next; Java and "
          "NetSolve far less, but all seven deliver",
          _sc98_part("F3a"), _fig3a_holds,
          lambda v: f"{len(v['mean'])} deliver; top/bottom mean rate "
                    f"{max(v['mean'].values()) / min(v['mean'].values()):.0f}×",
          **SC98),
    Claim("F3b", "Fig. 3b/4b", "Condor the largest pool (~120), churning; NT "
          "steady; Java bursty; NetSolve a handful",
          _sc98_part("F3b"), _fig3b_holds,
          lambda v: "host-count CV condor {condor_cv:.3f} vs nt {nt_cv:.3f}; "
                    "java {java_min:.1f} … {java_max:.1f}".format(**v), **SC98),
    Claim("F3c", "Fig. 3c/4c", "the application drew power from the pool "
          "relatively uniformly",
          _sc98_part("F3c"), _fig3c_holds,
          lambda v: f"total CV {v['total_cv']:.3f}, parts "
                    f"{min(v['part_cvs'].values()):.3f} … "
                    f"{max(v['part_cvs'].values()):.3f}", **SC98),
    Claim("§7", "§7", "pervasive, dependable, consistent, inexpensive",
          _sc98_part("§7"),
          lambda v: {
              "7 infrastructures delivered": v["infrastructures"] == 7,
              "work delivered in > 99% of windows": v["delivering"] > 0.99,
              "total CV < median part CV": v["total_cv"] < v["median_part_cv"],
              "Condor reclamations > 0": v["reclamations"] > 0},
          lambda v: "{infrastructures}/7 deliver; speeds {slowest:,.0f} … "
                    "{fastest:,.0f} iops; work in {delivering:.1%} of windows; "
                    "total CV {total_cv:.3f} vs median {median_part_cv:.3f} / "
                    "max {max_part_cv:.3f}; {reclamations:,} Condor "
                    "reclamations".format(**v), **SC98),
    Claim("seeds", "§4.1 shapes", "dip/peak 1.1/2.39 = 0.460; recovery/peak "
          "2.0/2.39 = 0.837",
          _seeds, _seeds_holds,
          lambda v: "{n} seeds at scale 0.15: dip/peak {dip_ci[0]:.3f} "
                    "[{dip_ci[1]:.3f}, {dip_ci[2]:.3f}], recovery/peak "
                    "{recovery_ci[0]:.3f} [{recovery_ci[1]:.3f}, "
                    "{recovery_ci[2]:.3f}] (95% bootstrap CI)".format(
                        n=len(v["smoother"]), **v),
          seed=(11, 23, 37, 51, 73), scale=0.15, reduced={"seed": (11,)}),
    Claim("§5.6", "§5.6", "Java on a 300 MHz Pentium II: 111,616 iops "
          "interpreted, 12,109,720 JIT (~108.5×)",
          _java, _java_holds,
          lambda v: "{interp_class:,.0f} / {jit_class:,.0f} iops, the two "
                    "java host classes".format(**v), seed=0),
    Claim("A1", "§2.2", "static time-outs misjudged the servers' "
          "availability; dynamic time-out discovery did not",
          _pair(_timeouts_world, ("static", False), ("dynamic", True)),
          lambda v: {
              "static misjudged (suspicions + evictions) > 0":
                  v["static"]["misjudged"] > 0,
              "dynamic misjudged == 0": v["dynamic"]["misjudged"] == 0},
          lambda v: "static {static[misjudged]} ({static[suspicions]} "
                    "suspicions, {static[evictions]} evictions); dynamic "
                    "{dynamic[misjudged]}".format(**v), seed=77),
    Claim("A2", "§5.4", "schedulers outside the Condor pool beat in-pool "
          "schedulers that clients must hunt for",
          _pair(_condor_sched_world, ("inside", True), ("outside", False)),
          lambda v: {
              "outside ops > inside ops":
                  v["outside"]["ops"] > v["inside"]["ops"],
              "inside switches > outside switches":
                  v["inside"]["switches"] > v["outside"]["switches"]},
          lambda v: f"outside delivers "
                    f"{v['outside']['ops'] / v['inside']['ops']:.2f}× the ops; "
                    f"{v['inside']['switches']} vs {v['outside']['switches']} "
                    f"scheduler switches", seed=31),
    Claim("A3", "§2.2 (NWS)", "adaptive forecaster selection is near-best "
          "on every series",
          lambda scale, seed: dict(zip(("regret", "best"), a3_table(seed)[1:])),
          lambda v: {
              "regret < 1.6 on every trace":
                  all(r < 1.6 for r in v["regret"].values()),
              "the best single method differs across traces":
                  len(set(v["best"].values())) >= 2},
          lambda v: f"worst regret {max(v['regret'].values()):.2f}×; best "
                    "single: " + ", ".join(f"{t} {m}" for t, m in v["best"].items()),
          seed=5),
    Claim("A4", "§2.3", "pairwise state comparison costs N² for N "
          "components",
          _gossip_scale, _gossip_scale_holds,
          lambda v: "pairwise ~N^{pairwise:.2f}, freshest ~N^{freshest:.2f}, "
                    "full sync ~N^{full_sync:.2f}, digest "
                    "~N^{digest:.2f}".format(**v["exponent"]), seed=9),
    Claim("A5", "§5.5", "LSF reclaimed long-sleeping NT workers; shorter "
          "sleeps traded scheduler smoothing for survival",
          _pair(_lsf_sleep_world, ("long", 180.0), ("short", 20.0)),
          lambda v: {
              "long-sleep LSF kills > 0": v["long"]["kills"] > 0,
              "short-sleep LSF kills == 0": v["short"]["kills"] == 0,
              "short sleeps deploy fully": v["short"]["full_at"] is not None,
              "short full deployment < long":
                  v["short"]["full_at"] < v["long"]["full_at"],
              "short hello burst >= long":
                  v["short"]["burst"] >= v["long"]["burst"]},
          lambda v: "U[0,180] s: {long[kills]} kills, full at "
                    "{long[full_at]:.0f} s, {long[burst]} hellos/10 s; "
                    "U[0,20] s: {short[kills]}, {short[full_at]:.0f} s, "
                    "{short[burst]}".format(**v), seed=17),
    Claim("A6", "§3", "2^903 colorings of K_43 make exhaustive search "
          "infeasible; heuristics are required",
          _heuristics, _heuristics_holds,
          lambda v: f"K_5 {v['k5']}/1024, K_6 {v['k6']}/32768 witnesses; "
                    f"tabu finds K_5's in "
                    f"{np.mean([r['steps'] for r in v['k5_tabu']]):.0f} steps",
          seed=0),
    Claim("A7", "§3.1.1", "schedulers migrate work from predicted-slow to "
          "predicted-fast clients",
          _pair(_migration_world, ("without", False), ("with", True)),
          lambda v: {"makespan with < without": v["with"] < v["without"],
                     "without/with > 1.3": v["without"] / v["with"] > 1.3},
          lambda v: f"makespan {v['without'] / 3600:.2f} h → "
                    f"{v['with'] / 3600:.2f} h "
                    f"({v['without'] / v['with']:.2f}×)", seed=41),
    Claim("A8", "§5.4", "the standard universe checkpoints and migrates; "
          "vanilla kills",
          _pair(_universe_world, ("vanilla", "vanilla"),
                ("standard", "standard")),
          lambda v: {
              "standard checkpoint migrations > 0":
                  v["standard"]["checkpoint_migrations"] > 0,
              "standard units > vanilla units":
                  v["standard"]["units"] > v["vanilla"]["units"]},
          lambda v: "{standard[units]} vs {vanilla[units]} units; "
                    "{standard[checkpoint_migrations]} checkpoint migrations "
                    "of {standard[reclamations]} reclamations".format(**v),
          seed=19),
    Claim("§2.3", "§2.3, §6", "open question: can tightly synchronized "
          "codes use a fluctuating Grid?",
          _barrier, _barrier_holds,
          lambda v: "rounds/s: LAN {lan[rounds_per_sec]:.1f}, WAN "
                    "{wan[rounds_per_sec]:.1f}, storms "
                    "{stormy[rounds_per_sec]:.1f} ({stormy[stragglers]} "
                    "straggler rounds)".format(**v), seed=8),
]
