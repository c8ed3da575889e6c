#!/usr/bin/env python
"""The NWS forecasting subsystem on realistic load traces.

Generates a regime-switching "server response time" trace (quiet
overnight, bursty under contention — the kind of series EveryWare's
dynamic benchmarking produces), runs the full forecaster bank over it,
and shows why adaptive method selection wins: no single method is best
everywhere, but the bank tracks whichever currently is.

Also demonstrates dynamic time-out discovery (§2.2): the derived time-out
hugs the true response-time regime instead of a static guess.

Run: ``python examples/forecasting_demo.py``
"""

import numpy as np

from repro.api import ForecastRegistry, ForecasterBank


def make_trace(n=1200, seed=3):
    """Response times with three regimes and heavy-tailed spikes."""
    rng = np.random.default_rng(seed)
    trace = []
    level = 0.05
    for i in range(n):
        if i == 400:
            level = 0.50  # contention sets in (SCInet reconfigured...)
        if i == 800:
            level = 0.12  # partial recovery
        value = level * (1 + 0.15 * rng.standard_normal())
        if rng.random() < 0.03:
            value *= rng.uniform(3, 10)  # a straggler
        trace.append(max(value, 0.001))
    return trace


def main() -> None:
    trace = make_trace()

    # Score every individual method and the adaptive chooser.
    bank = ForecasterBank()
    chooser_err, scored = 0.0, 0
    method_history = []
    for value in trace:
        fc = bank.forecast()
        if fc is not None:
            chooser_err += abs(fc.value - value)
            scored += 1
            method_history.append(fc.method)
        bank.update(value)

    print("per-method MAE over the whole trace:")
    for name, mae in sorted(bank.errors().items(), key=lambda kv: kv[1]):
        print(f"  {name:>12}: {mae:.4f}")
    chooser_mae = chooser_err / scored
    best_single = min(bank.errors().values())
    print(f"\nadaptive chooser MAE: {chooser_mae:.4f} "
          f"(best single method: {best_single:.4f})")

    switches = sum(1 for a, b in zip(method_history, method_history[1:]) if a != b)
    used = sorted(set(method_history))
    print(f"chooser switched methods {switches} times across {len(used)} methods: {used}")

    # Dynamic time-outs across the regime change.
    print("\ndynamic time-out discovery (multiplier 4x):")
    registry = ForecastRegistry()
    checkpoints = {0: None, 399: None, 410: None, 500: None, 801: None, 1100: None}
    for i, value in enumerate(trace):
        registry.record("server", value)
        if i in checkpoints:
            checkpoints[i] = registry.timeout("server", multiplier=4.0)
    for i, timeout in checkpoints.items():
        print(f"  after sample {i:>4}: time-out = {timeout:.2f} s")
    print("\na static time-out tuned to the quiet regime (~0.2 s) would "
          "misjudge every response during contention — the needless "
          "retries the paper saw with static time-outs (§2.2).")


if __name__ == "__main__":
    main()
