"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sc98``    run the SC98 scenario and print/export the paper's figures
``ramsey``  run a counter-example search locally (real kernels)
``bench``   compute-plane scaling (``--parallel``) and transport
            (``--net``) benchmarks
``pet``     run the distributed PET reconstruction demo
``trace``   run a scenario with causal tracing on; export Chrome trace
            (``--job ID --from DIR`` walks one job's end-to-end trace
            out of a serve/live run's ``spans.json`` instead)
``metrics`` run a scenario and print/export its metrics snapshot
``live``    run the world as real OS processes on localhost
``serve``   stand up the HTTP/JSON job gateway and storm it with
            synthetic users (``--simulate`` for the deterministic twin)
``explore`` run a model-exploration algorithm (grid sweep or hill
            climber) whose evaluations execute on the grid
            (``--simulate`` for the deterministic twin)
``top``     live dashboard over a running gateway (submissions/s, queue
            depth, per-site utilisation, route latency)
``info``    print version and system inventory

(``live-node`` is internal: the supervisor spawns one per world node.)

Every experiment-shaped command (``sc98``, ``bench``, ``trace``,
``metrics``, ``live``, ``serve``, ``explore``) shares one flag vocabulary —
``--seed``, ``--duration``, ``--out`` — declared once in
:func:`_common_parent` so defaults and help text cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

__all__ = ["main"]


def _common_parent(
    *,
    seed: int,
    duration: Optional[float] = None,
    duration_help: Optional[str] = None,
    out_help: str = "directory for JSON exports",
) -> argparse.ArgumentParser:
    """One parent parser per experiment command carrying the shared
    ``--seed`` / ``--duration`` / ``--out`` flags (``duration=None``
    omits ``--duration`` for commands without a time axis)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=seed,
                        help=f"deterministic run seed (default {seed})")
    if duration is not None:
        parent.add_argument("--duration", type=float, default=duration,
                            help=duration_help or
                            f"seconds to run (default {duration:g})")
    parent.add_argument("--out", type=str, default=None, help=out_help)
    return parent


def _cmd_sc98(args: argparse.Namespace) -> int:
    from .experiments import (
        SC98Config,
        build_sc98,
        render_fig2,
        render_fig3a,
        render_fig3b,
        render_grid_criteria,
        render_headlines,
    )
    from .experiments.export import write_results

    cfg = SC98Config(
        scale=args.scale,
        seed=args.seed,
        duration=args.duration,
        k=args.k,
        n=args.n,
        engine=args.engine,
        compute_pool=args.compute_pool,
        max_steps_per_advance=args.max_steps_per_advance,
    )
    world = build_sc98(cfg)
    lane_desc = ""
    if cfg.engine == "real":
        lane_desc = (f", engine real, "
                     f"{'pool=' + str(cfg.compute_pool) if cfg.compute_pool else 'inline lane'}")
    print(f"running SC98 scenario (scale {args.scale}, seed {args.seed}"
          f"{lane_desc}) ...")
    t0 = time.time()
    results = world.run()
    print(f"simulated {cfg.duration / 3600:.1f} h in {time.time() - t0:.1f} s\n")
    print(render_headlines(results))
    if args.figures:
        print()
        print(render_fig2(results))
        print()
        print(render_fig3a(results))
        print()
        print(render_fig3b(results))
        print()
        print(render_grid_criteria(results))
    if args.out:
        paths = write_results(results, args.out)
        print("\nwrote: " + ", ".join(paths))
    return 0


def _cmd_ramsey(args: argparse.Namespace) -> int:
    import numpy as np

    from .ramsey import Coloring, OpCounter, is_counter_example, make_search

    ops = OpCounter()
    rng = np.random.default_rng(args.seed)
    search = make_search(args.heuristic, args.k, args.n, rng, ops=ops)
    print(f"searching K_{args.k} for a coloring with no monochromatic "
          f"K_{args.n} ({args.heuristic}, seed {args.seed}) ...")
    t0 = time.time()
    steps = search.run(max_steps=args.steps)
    elapsed = time.time() - t0
    snap = search.snapshot()
    print(f"steps: {steps}, best energy: {snap.best_energy}, "
          f"metered ops: {ops.ops:,} ({ops.ops / max(elapsed, 1e-9):,.0f}/s)")
    if search.found:
        coloring = Coloring.from_hex(args.k, snap.best_coloring)
        verified = is_counter_example(coloring, args.n)
        print(f"counter-example FOUND: R({args.n},{args.n}) > {args.k} "
              f"(independently verified: {verified})")
        print(f"witness (hex edge vector): {snap.best_coloring}")
        return 0
    print("no counter-example within the step budget "
          f"(best energy {snap.best_energy})")
    return 1


def _cmd_bench_net(args: argparse.Namespace) -> int:
    import json

    from .api import run_netbench

    counts = tuple(int(c) for c in args.connections.split(","))
    print(f"transport curves over connection counts {counts} "
          f"({args.net_duration:.1f}s cells) ...")
    report = run_netbench(connection_counts=counts,
                          duration=args.net_duration, payload=0)
    print(f"{'bench':>7} {'mode':>16} {'conns':>6} {'msgs/s':>10} "
          f"{'p50 ms':>8} {'p99 ms':>8} {'speedup':>8}")
    for row in report["rows"]:
        speed = row.get("speedup_vs_blocking")
        print(f"{row['bench']:>7} {row['mode']:>16} "
              f"{row['connections']:>6} {row['msgs_per_s']:>10,.0f} "
              f"{row.get('p50_ms', 0.0):>8.1f} "
              f"{row.get('p99_ms', 0.0):>8.1f} "
              f"{'' if speed is None else f'{speed:.2f}x':>8}")
    print(f"host cpus: {report['host_cpus']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote: {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    if args.net:
        return _cmd_bench_net(args)
    if not args.parallel:
        print("nothing to do: pass --parallel for the compute-plane "
              "scaling benchmark or --net for the transport benchmark")
        return 2
    from .api import run_scaling

    worker_counts = tuple(int(w) for w in args.workers.split(","))
    print(f"scaling tabu kernel batches over pool sizes {worker_counts} "
          f"(K_{args.k}, n={args.n}, {args.searches} searches, "
          f"{args.candidates} candidates) ...")
    report = run_scaling(
        worker_counts=worker_counts,
        searches=args.searches,
        k=args.k,
        n=args.n,
        candidates=args.candidates,
        steps_per_batch=args.steps_per_batch,
        batches=args.batches,
        seed=args.seed,
        rounds=args.rounds,
    )
    print(f"{'workers':>8} {'moves/s':>12} {'speedup':>8} "
          f"{'parity':>18} {'fallbacks':>9}")
    for row in report["rows"]:
        print(f"{row['workers']:>8} {row['moves_per_s']:>12,.0f} "
              f"{row['speedup_vs_inline']:>7.2f}x "
              f"{row['parity_hash']:>18} {row['fallbacks']:>9}")
        if row.get("warning"):
            print(f"{'':>8} warning: {row['warning']}")
    print(f"parity: {'OK' if report['parity_ok'] else 'MISMATCH'} "
          f"(host cpus: {report['host_cpus']})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote: {args.out}")
    return 0 if report["parity_ok"] else 1


def _cmd_pet(args: argparse.Namespace) -> int:
    import numpy as np

    from .apps.pet import (
        Accumulator,
        execute_task,
        forward_project,
        image_correlation,
        make_phantom,
        make_tasks,
        task_cost,
    )
    from .apps.runner import run_farm

    angles = [float(a) for a in np.linspace(0, 180, args.angles, endpoint=False)]
    phantom = make_phantom(args.size)
    sino = forward_project(phantom, angles)
    tasks = make_tasks(sino, angles, args.size, chunk=max(args.angles // 8, 1))
    acc = Accumulator(size=args.size)
    print(f"farming {len(tasks)} backprojection tasks over "
          f"{args.workers} workers ...")
    run = run_farm(tasks, execute=execute_task, cost=task_cost,
                   on_result=acc, n_workers=args.workers)
    corr = image_correlation(acc.image, phantom)
    print(f"done in {run.sim_seconds:.0f} simulated seconds; "
          f"phantom correlation {corr:.3f}")
    return 0 if corr > 0.8 else 1


def _run_observed(args: argparse.Namespace, trace: bool):
    """Build and run the scenario named by ``args``; returns
    (report dict, telemetry, engine profiler or None)."""
    profiler = None
    if getattr(args, "profile_engine", False):
        from .simgrid.profile import EngineProfiler

        profiler = EngineProfiler()
    if args.scenario == "observe":
        from .experiments.observe import ObserveConfig, ObserveWorld

        cfg = ObserveConfig(seed=args.seed, duration=args.duration)
        world = ObserveWorld(cfg, trace=trace)
        world.env.profiler = profiler
        report = world.run()
        return report, world.telemetry, profiler
    from .experiments.chaos import ChaosConfig, ChaosWorld
    from .experiments.observe import requeue_chains

    cfg = ChaosConfig(seed=args.seed, duration=args.duration)
    world = ChaosWorld(args.chaos_profile, cfg, trace=trace)
    world.env.profiler = profiler
    report = world.run().to_dict()
    if trace:
        report["requeue_chains"] = requeue_chains(world.telemetry)
    return report, world.telemetry, profiler


def _observed_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=["observe", "chaos"],
                   default="observe")
    p.add_argument("--chaos-profile", default="crash-heavy",
                   help="fault profile when --scenario chaos")
    p.add_argument("--profile-engine", action="store_true",
                   help="profile the event loop and handler latencies")


def _cmd_trace_job(args: argparse.Namespace) -> int:
    """``repro trace --job ID --from DIR``: walk one job's end-to-end
    causal chain out of a recorded run's spans (no scenario run)."""
    from .obs import job_trace, load_spans, render_job_trace

    if not args.from_path:
        print("--job needs --from <run dir or spans.json> "
              "(a `repro serve --out`/`repro live --out` artifact)")
        return 2
    try:
        spans = load_spans(args.from_path)
    except (OSError, ValueError) as exc:
        print(f"cannot load spans from {args.from_path!r}: {exc}")
        return 2
    try:
        trace = job_trace(spans, args.job)
    except KeyError:
        print(f"no spans for job {args.job!r} in {args.from_path}")
        return 1
    print(render_job_trace(trace))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os

    from .core.telemetry import render_timeline, write_metrics_json, write_trace_json

    from .experiments.report import render_trace_summary

    if args.job:
        return _cmd_trace_job(args)
    report, telemetry, profiler = _run_observed(args, trace=True)
    chains = report.get("requeue_chains", [])
    print(render_trace_summary(telemetry))
    print(f"\n{len(chains)} fault->requeue chain(s)")
    for chain in chains:
        print(f"  unit {chain['unit_id']} on {chain['client']}: "
              f"{' <- '.join(chain['faults']) or 'no fault linked'} -> "
              f"{len(chain['drops'])} drop(s) -> {chain['retransmits']} "
              f"retransmit(s) -> {chain['call']} {chain['call_outcome']} "
              f"-> requeued at t={chain['requeued_at']:.1f}s")
    if args.timeline:
        print()
        print(render_timeline(telemetry, limit=args.timeline))
    if profiler is not None:
        print()
        print(profiler.render())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        # The profiler lane is wall-clock and only present under
        # --profile-engine, so default exports stay byte-diffable.
        extra = profiler.chrome_events() if profiler is not None else None
        paths = [
            write_trace_json(telemetry, os.path.join(args.out, "trace.json"),
                             extra_events=extra),
            write_metrics_json(telemetry, os.path.join(args.out, "metrics.json")),
        ]
        report_path = os.path.join(args.out, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(report_path)
        print("\nwrote: " + ", ".join(paths))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import os

    from .core.telemetry import write_metrics_json

    report, telemetry, profiler = _run_observed(args, trace=False)
    snapshot = telemetry.snapshot()
    print(json.dumps(snapshot, indent=1, sort_keys=True))
    if profiler is not None:
        print()
        print(profiler.render())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = write_metrics_json(telemetry, os.path.join(args.out, "metrics.json"))
        print(f"\nwrote: {path}")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    import json

    from .experiments.bigpool import (build_pool, churn_plan, export_state,
                                      gossip_rollup, inject_write,
                                      run_until_converged)

    pool = build_pool(n_hosts=args.hosts, n_sites=args.sites,
                      n_records=args.records, seed=args.seed)
    if args.churn:
        churn_plan(pool.config).install(pool.env, pool.network)
    pool.run(until=args.warm)
    inject_write(pool)
    result = run_until_converged(pool, deadline=args.deadline)
    rollup = gossip_rollup(pool.servers)
    if args.json:
        doc = export_state(pool)
        doc["convergence"] = result
        doc["rollup"] = rollup
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"pool: {args.hosts} hosts / {args.sites} sites / "
              f"{args.records} records (seed {args.seed}"
              f"{', churn' if args.churn else ''})")
        print(f"converged: {result['converged']} after "
              f"{result['rounds']:.0f} rounds ({result['time']:.1f}s sim)")
        print(f"digest rounds: {rollup['digest_rounds']:,}  "
              f"delta records: {rollup['delta_records']:,}")
        print(f"sync bytes: {rollup['bytes_sent']:,}  "
              f"saved vs full-sync: {rollup['bytes_saved']:,}")
        print(f"suspicion transitions: {rollup['suspicion']}  "
              f"evictions: {rollup['evictions']}")
    if args.gateway:
        from .control.client import GatewayClient

        with GatewayClient(args.gateway) as client:
            client.publish_gossip(rollup)
        print(f"published rollup to {args.gateway}")
    return 0 if result["converged"] else 1


def _cmd_live(args: argparse.Namespace) -> int:
    from .experiments.report import render_live_summary
    from .live import run_live, sc98_topology

    topology = sc98_topology(
        clients=args.clients,
        gossips=args.gossips,
        schedulers=args.schedulers,
        persistents=args.persistents,
        loggers=args.loggers,
        k=args.k,
        n=args.n,
        speed=args.speed,
        seed=args.seed,
    )
    kill_at = args.kill_at if args.kill_at and args.kill_at > 0 else None
    print(f"standing up {len(topology.nodes)} node processes on localhost "
          f"for {args.duration:.0f}s wall "
          f"{'(chaos: kill at t=%.1fs)' % kill_at if kill_at else ''}...")
    report = run_live(
        topology,
        duration=args.duration,
        kill_at=kill_at,
        kill_node=args.kill_node,
        out=args.out,
        progress=lambda text: print(f"  {text}"),
    )
    print()
    print(render_live_summary(report.to_dict()))
    if report.artifacts:
        print("\nwrote: " + ", ".join(
            report.artifacts[k] for k in sorted(report.artifacts)))
    return 0 if report.ok else 1


def _finish_twin(report: dict, out: Optional[str], name: str) -> int:
    """Print a ``--simulate`` report's violations, write it under ``out``
    as the byte-stable document CI hashes, and return the exit code."""
    import json
    import os

    for violation in report["violations"]:
        print(f"VIOLATION: {violation}")
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote: {path}")
    return 0 if not report["violations"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    kill_at = args.kill_at if args.kill_at and args.kill_at > 0 else None
    if args.simulate:
        from .control import run_sim_serve

        print(f"simulated twin: {args.storm} job users, {args.clients} "
              f"workers, {args.duration:.0f}s simulated"
              + (f" (gateway restart at t={kill_at:.1f}s)" if kill_at else "")
              + " ...")
        report = run_sim_serve(
            seed=args.seed, users=args.storm, workers=args.clients,
            duration=args.duration, restart_after=kill_at)
        gw = report["gateway"]
        print(f"requests: {gw['requests']}, accepted: "
              f"{report['accepted_total']}, lost: "
              f"{len(report['jobs_lost'])}, restarts: {gw['restarts']} "
              f"(requeued {gw['requeued_on_restart']})")
        return _finish_twin(report, args.out, "serve_sim.json")

    from .control import ServeConfig, run_serve

    config = ServeConfig(
        clients=args.clients, gateways=args.gateways,
        storm_clients=args.storm, duration=args.duration,
        kill_at=kill_at, kill_node=args.kill_node,
        churn_every=args.churn_every, seed=args.seed,
        k=args.k, n=args.n,
        cancel_fraction=args.cancel_fraction)
    kill_target = args.kill_node or "the gateway"
    print(f"standing up {args.gateways} gateway(s) + {args.clients} "
          f"client(s) and storming with {args.storm} HTTP users for "
          f"{args.duration:.0f}s wall"
          + (f" (chaos: kill {kill_target} at t={kill_at:.1f}s)"
             if kill_at else "")
          + " ...")
    report = run_serve(config, out=args.out,
                       progress=lambda text: print(f"  {text}"))
    storm = report.storm
    print(f"\nstorm: {storm['submitted']} submitted, {storm['queried']} "
          f"queried, {storm['cancelled']} cancelled, "
          f"{storm['rejected']} rejected, {storm['errors']} errors")
    states = ", ".join(f"{state}={count}" for state, count
                       in sorted(report.job_states.items()))
    print(f"jobs: {report.accepted} accepted, "
          f"{len(report.jobs_lost)} lost ({states or 'no states'})")
    for violation in report.violations:
        print(f"VIOLATION: {violation}")
    if not report.violations:
        print("invariants: OK (no accepted job lost)")
    if report.artifacts:
        print("wrote: " + ", ".join(
            report.artifacts[k] for k in sorted(report.artifacts)))
    return 0 if report.ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    kill_at = args.kill_at if args.kill_at and args.kill_at > 0 else None
    if args.simulate:
        from .explore import run_sim_explore

        ops_budget = args.ops_budget or 20_000.0
        print(f"simulated twin: {args.algo!r} over fn={args.fn!r}, "
              f"{args.clients} workers, {args.duration:.0f}s simulated"
              + (f" (gateway restart at t={kill_at:.1f}s)" if kill_at else "")
              + (f" ({args.corrupt_first} corrupted result(s))"
                 if args.corrupt_first else "")
              + " ...")
        report = run_sim_explore(
            seed=args.seed, algo=args.algo, fn=args.fn,
            workers=args.clients, duration=args.duration,
            scale=args.scale, ops_budget=ops_budget,
            restart_after=kill_at, corrupt_first=args.corrupt_first)
        driver = report["driver"]
        work = report["gateway"]["work"]
        print(f"ME: {driver['evals']} evaluations consumed, "
              f"best={driver.get('best')}")
        print(f"work queue: {work['completed']} completed, "
              f"{work['requeued']} requeued, "
              f"{work['results_rejected']} results rejected, "
              f"{report['gateway']['restarts']} gateway restart(s)")
        return _finish_twin(report, args.out, "explore_sim.json")

    from .explore import ExploreConfig, run_explore

    config = ExploreConfig(
        algo=args.algo, fn=args.fn, clients=args.clients,
        duration=args.duration, scale=args.scale,
        ops_budget=args.ops_budget or 75_000.0,
        kill_at=kill_at, kill_node=args.kill_node,
        batch=args.batch, seed=args.seed)
    print(f"standing up the grid and running {args.algo!r} over "
          f"fn={args.fn!r} for up to {args.duration:.0f}s wall"
          + (f" (chaos: kill at t={kill_at:.1f}s)" if kill_at else "")
          + " ...")
    report = run_explore(config, out=args.out,
                         progress=lambda text: print(f"  {text}"))
    summary = report["summary"]
    jobs = report["jobs"]
    print(f"\nME: {summary['evals']} evaluations consumed in "
          f"{summary['elapsed']:.1f}s, best={summary.get('best')}")
    print(f"jobs: {jobs['pushed']} pushed, {jobs['done']} done, "
          f"{jobs['requeues_total']} requeue(s); queue p99 "
          f"{report['queue']['pop_p99_ms']} ms")
    for violation in report["violations"]:
        print(f"VIOLATION: {violation}")
    if not report["violations"]:
        print("invariants: OK (every evaluation done exactly once)")
    if report.get("artifacts"):
        print("wrote: " + ", ".join(
            report["artifacts"][k] for k in sorted(report["artifacts"])))
    return 0 if report["ok"] else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs import run_top

    return run_top(args.contact, interval=args.interval,
                   duration=args.duration, once=args.once)


def _cmd_live_node(args: argparse.Namespace) -> int:
    from .live import run_node

    return run_node(args.manifest, args.node, deadline=args.deadline,
                    incarnation=args.incarnation)


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    if getattr(args, "api", False):
        import json

        from . import api

        print(json.dumps(api.surface(), indent=1, sort_keys=True))
        return 0
    print(f"repro {repro.__version__} — EveryWare (SC'99) reproduction")
    print(__doc__)
    inventory = [
        ("repro.core.linguafranca", "typed packet messaging, TCP + sim transports"),
        ("repro.core.forecasting", "NWS forecaster bank, dynamic benchmarking, sensors"),
        ("repro.core.gossip", "state exchange pool + clique protocol"),
        ("repro.core.services", "schedulers, persistent state, logging, task farm"),
        ("repro.simgrid", "deterministic discrete-event Grid substrate"),
        ("repro.infra", "the seven SC98 infrastructure adapters"),
        ("repro.ramsey", "the Ramsey Number Search application"),
        ("repro.apps", "PET reconstruction + G-Net data mining"),
        ("repro.experiments", "SC98 scenario + figure regeneration"),
        ("repro.live", "live deployment plane: real processes on localhost"),
        ("repro.control", "workload control plane: HTTP/JSON job gateway"),
        ("repro.obs", "observability plane: job tracing, flight recorder, "
                      "Prometheus exposition, repro top"),
        ("repro.explore", "model exploration: EMEWS-style task queue + "
                          "ME algorithms"),
    ]
    for module, blurb in inventory:
        print(f"  {module:<28} {blurb}")
    from .live.topology import ROLES

    print("\nlive-plane entrypoints:")
    print(f"  {'repro live':<28} stand up, supervise, and report a world")
    print(f"  {'repro serve':<28} gateway world + synthetic HTTP storm")
    print(f"  {'repro explore':<28} ME algorithm driving grid evaluations")
    print(f"  {'repro live-node':<28} one node process "
          "(spawned by the supervisor)")
    print("  node roles: " + ", ".join(ROLES))

    from . import explore as _explore  # noqa: F401  (registers kinds)
    from .core.services.kinds import registry

    print("\napp kinds (client-side execution registry):")
    for name in registry.names():
        print(f"  {name:<28} {registry.get(name).description}")
    print("\napi surface: repro info --api (layered; see repro.api)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "sc98", help="run the SC98 scenario",
        parents=[_common_parent(
            seed=1998, duration=12 * 3600.0,
            duration_help="simulated seconds (default: the paper's 12 h)",
            out_help="directory for CSV/JSON exports")])
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--k", type=int, default=43,
                   help="Ramsey search target K_k (default 43, the R(5,5) run)")
    p.add_argument("--n", type=int, default=5,
                   help="forbidden monochromatic clique size")
    p.add_argument("--engine", choices=["model", "real"], default="model",
                   help="client compute engine: cost-model or real kernels")
    p.add_argument("--compute-pool", type=int, default=0, metavar="N",
                   help="offload real-engine kernels to N pool workers "
                        "(0 = inline lane; results are bit-identical)")
    p.add_argument("--max-steps-per-advance", type=int, default=2000,
                   help="real-engine step cap per advance (smoke runs)")
    p.add_argument("--figures", action="store_true",
                   help="print the full figure tables")
    p.set_defaults(func=_cmd_sc98)

    p = sub.add_parser(
        "bench", help="run micro/scaling benchmarks",
        parents=[_common_parent(
            seed=0, out_help="write the benchmark report JSON here")])
    p.add_argument("--parallel", action="store_true",
                   help="run the compute-plane scaling benchmark")
    p.add_argument("--net", action="store_true",
                   help="run the transport benchmark (echo storms and "
                        "send fan-out, blocking stack vs async reactor)")
    p.add_argument("--connections", type=str, default="64,256,1000",
                   help="comma-separated connection counts (--net)")
    p.add_argument("--net-duration", type=float, default=2.0,
                   help="measured seconds per transport cell (--net)")
    p.add_argument("--workers", type=str, default="0,1,2,4",
                   help="comma-separated pool sizes (0 = inline lane)")
    p.add_argument("--searches", type=int, default=4)
    p.add_argument("--k", type=int, default=43)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--candidates", type=int, default=64)
    p.add_argument("--steps-per-batch", type=int, default=25)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--rounds", type=int, default=2,
                   help="best-of rounds per worker count")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ramsey", help="run a local counter-example search")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--heuristic", choices=["tabu", "anneal", "minconflict"],
                   default="tabu")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("pet", help="distributed PET reconstruction demo")
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--angles", type=int, default=36)
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(func=_cmd_pet)

    observed_parent = dict(
        seed=7, duration=420.0,
        duration_help="simulated seconds (default 420)",
        out_help="directory for trace/metrics JSON exports")
    p = sub.add_parser("trace", help="run a traced scenario; export Chrome trace",
                       parents=[_common_parent(**observed_parent)])
    _observed_arguments(p)
    p.add_argument("--timeline", type=int, nargs="?", const=200, default=0,
                   help="print a text timeline (optionally: max lines)")
    p.add_argument("--job", type=str, default=None, metavar="ID",
                   help="walk one job's end-to-end trace out of a "
                        "recorded run (requires --from) instead of "
                        "running a scenario")
    p.add_argument("--from", dest="from_path", type=str, default=None,
                   metavar="PATH",
                   help="run directory (or spans.json) holding the "
                        "recorded spans for --job")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("metrics", help="run a scenario; print metrics snapshot",
                       parents=[_common_parent(**observed_parent)])
    _observed_arguments(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "pool",
        help="build a 1k-10k host gossip pool; inject a write, converge")
    p.add_argument("--hosts", type=int, default=1024,
                   help="pool size (default 1024)")
    p.add_argument("--sites", type=int, default=16)
    p.add_argument("--records", type=int, default=32,
                   help="pre-seeded shared state records")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--warm", type=float, default=30.0, metavar="S",
                   help="sim seconds to run before injecting the write")
    p.add_argument("--deadline", type=float, default=2000.0, metavar="S",
                   help="sim-time budget for convergence")
    p.add_argument("--churn", action="store_true",
                   help="install the deterministic churn plan "
                        "(crashes + a healed partition)")
    p.add_argument("--json", action="store_true",
                   help="print the full deterministic state export")
    p.add_argument("--gateway", metavar="HOST:PORT",
                   help="publish the rollup to a live gateway's "
                        "POST /telemetry/gossip")
    p.set_defaults(func=_cmd_pool)

    p = sub.add_parser(
        "live", help="run the world as real processes on localhost",
        parents=[_common_parent(
            seed=0, duration=12.0,
            duration_help="wall seconds to run the world",
            out_help="directory for manifest, node logs, merged "
                     "report/metrics/trace JSON")])
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--gossips", type=int, default=2)
    p.add_argument("--schedulers", type=int, default=1)
    p.add_argument("--persistents", type=int, default=1)
    p.add_argument("--loggers", type=int, default=1)
    p.add_argument("--k", type=int, default=8,
                   help="Ramsey target K_k (small: live runs measure the "
                        "deployment plane, not the search)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--speed", type=float, default=300_000.0,
                   help="per-client compute budget, ops per wall second")
    p.add_argument("--kill-at", type=float, default=0.0, metavar="T",
                   help="chaos: SIGKILL a node T seconds in (0 = off)")
    p.add_argument("--kill-node", type=str, default=None,
                   help="which node --kill-at kills (default: first client)")
    p.set_defaults(func=_cmd_live)

    p = sub.add_parser(
        "serve", help="stand up the HTTP job gateway and storm it",
        parents=[_common_parent(
            seed=0, duration=10.0,
            duration_help="wall seconds of storm (simulated seconds "
                          "with --simulate)",
            out_help="directory for manifest, node logs, and the serve "
                     "report JSON")])
    p.add_argument("--clients", type=int, default=2,
                   help="Ramsey client nodes executing submitted jobs")
    p.add_argument("--gateways", type=int, default=1)
    p.add_argument("--storm", type=int, default=50, metavar="N",
                   help="concurrent synthetic HTTP users")
    p.add_argument("--churn-every", type=int, default=0, metavar="K",
                   help="storm connections reconnect after K responses "
                        "(0 = keep-alive throughout)")
    p.add_argument("--kill-at", type=float, default=0.0, metavar="T",
                   help="chaos: SIGKILL the gateway T seconds in (0 = off); "
                        "with --simulate, a deterministic in-sim restart")
    p.add_argument("--k", type=int, default=8,
                   help="Ramsey target K_k for submitted job specs")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--kill-node", type=str, default=None,
                   help="which node --kill-at kills (default: the first "
                        "gateway; kill a client to watch one job's trace "
                        "span two incarnations)")
    p.add_argument("--cancel-fraction", type=float, default=0.1,
                   metavar="F",
                   help="fraction of storm turns that cancel a job "
                        "(0 with --kill-node: a cancelled in-flight job "
                        "is dropped on requeue, which would make the "
                        "two-incarnation trace demo nondeterministic)")
    p.add_argument("--simulate", action="store_true",
                   help="run the deterministic simulated twin instead of "
                        "real processes")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "explore", help="run a model-exploration algorithm over the grid",
        parents=[_common_parent(
            seed=0, duration=60.0,
            duration_help="wall seconds for the ME pump (simulated "
                          "seconds with --simulate)",
            out_help="directory for manifest, node logs, and the "
                     "explore report JSON")])
    p.add_argument("--algo", choices=["sweep", "hill"], default="sweep",
                   help="ME algorithm: deterministic grid sweep or "
                        "iterative hill climber (default sweep)")
    p.add_argument("--fn", choices=["sphere", "rastrigin", "forecast"],
                   default="forecast",
                   help="black-box objective to explore (default forecast)")
    p.add_argument("--clients", type=int, default=2,
                   help="computational clients executing evaluations "
                        "(sim workers with --simulate)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor (grid density / "
                        "generations)")
    p.add_argument("--ops-budget", type=float, default=0.0,
                   help="simulated ops per evaluation (0 = plane "
                        "default: 75k live, 20k sim)")
    p.add_argument("--kill-at", type=float, default=0.0, metavar="T",
                   help="chaos: SIGKILL a client T seconds in (0 = off); "
                        "with --simulate, a deterministic in-sim "
                        "gateway restart")
    p.add_argument("--kill-node", type=str, default=None,
                   help="which node --kill-at kills (default: first "
                        "client)")
    p.add_argument("--corrupt-first", type=int, default=0, metavar="N",
                   help="--simulate only: worker 0 corrupts its first N "
                        "results (exercises the §3.1 result check)")
    p.add_argument("--no-batch", dest="batch", action="store_false",
                   help="submit one POST /jobs per task instead of "
                        "POST /jobs/batch")
    p.add_argument("--simulate", action="store_true",
                   help="run the deterministic simulated twin instead of "
                        "real processes")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "top", help="live dashboard over a running gateway")
    p.add_argument("contact", type=str,
                   help="gateway HTTP contact, host:port")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period, seconds (default 1.0)")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds (default: run "
                        "until interrupted)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (no screen clearing)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("live-node",
                       help="internal: run one live node (supervisor-spawned)")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--node", type=str, required=True)
    p.add_argument("--deadline", type=float, required=True,
                   help="wall seconds before the node stops itself")
    p.add_argument("--incarnation", type=int, default=0)
    p.set_defaults(func=_cmd_live_node)

    p = sub.add_parser("info", help="version and inventory")
    p.add_argument("--api", action="store_true",
                   help="print the layered repro.api surface as JSON")
    p.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
