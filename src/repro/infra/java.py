"""Java applet adapter (§5.6): volunteer cycles from web browsers.

Anyone on the Internet could point a browser at the applet and donate
cycles — "a campus coffee shop at UCSD" included. Browsers arrive as a
Poisson process (rate adjustable over time: the SC98 demo drew a crowd),
stay for a heavy-tailed session, then leave for good. A fraction run a
JIT-enabled JVM (12,109,720 iops in the paper's measurement); the rest
interpret (111,616 iops) — slow, "but the additional (otherwise unused)
cycles still aid computation".
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..simgrid.host import Host
from ..simgrid.load import ConstantLoad
from .base import InfraAdapter
from .speeds import speed_for

__all__ = ["JavaApplets"]


class JavaApplets(InfraAdapter):
    name = "java"

    def __init__(
        self,
        *args,
        arrival_rate: float = 1.0 / 600.0,  # browsers per second
        rate_fn: Optional[Callable[[float], float]] = None,
        session_mean: float = 30 * 60.0,
        jit_fraction: float = 0.5,
        max_arrivals: int = 500,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.arrival_rate = arrival_rate
        #: Optional time-varying arrival rate (browsers/second at time t).
        self.rate_fn = rate_fn
        self.session_mean = session_mean
        self.jit_fraction = jit_fraction
        self.max_arrivals = max_arrivals
        self.arrivals = 0
        self.jit_count = 0

    def deploy(self) -> None:
        self._bound = max(self._rate(0.0), self.arrival_rate, 1.0 / 60.0)
        self.env.call(self._await_arrival, urgent=True)

    def _rate(self, t: float) -> float:
        return self.rate_fn(t) if self.rate_fn is not None else self.arrival_rate

    def _await_arrival(self, _tag: int) -> None:
        if self.arrivals < self.max_arrivals:
            rng = self.streams.get("arrivals")
            self.env.call(self._arrival,
                          float(rng.exponential(1.0 / self._bound)))

    def _arrival(self, tag: int) -> None:
        """Non-homogeneous Poisson arrivals by thinning: sample candidate
        events at an upper-bound rate and accept each with probability
        rate(t) / bound — so rate changes take effect immediately."""
        rng = self.streams.get("arrivals")
        rate = self._rate(self.env.now)
        if rate > self._bound:  # keep the bound an upper bound
            self._bound = rate
        elif rng.random() < rate / self._bound:
            self._browser_arrives(rng)
        self._await_arrival(tag)

    def _browser_arrives(self, rng) -> None:
        self.arrivals += 1
        jit = bool(rng.random() < self.jit_fraction)
        if jit:
            self.jit_count += 1
        host = self._add_host(
            f"java-{self.arrivals}",
            speed=speed_for("java_jit" if jit else "java_interp"),
            # The applet gets whatever the browser spares; model a steady
            # share since sessions are short.
            load_model=ConstantLoad(0.8),
        )
        self.launch_client(host)
        self.env.call(partial(self._session, host, rng), urgent=True)

    def _session(self, host: Host, rng, _tag: int) -> None:
        self.env.call(partial(self._leave, host),
                      float(rng.exponential(self.session_mean)))

    def _leave(self, host: Host, _tag: int) -> None:
        host.go_down("browser closed")  # permanent: the visitor left

    def on_client_exit(self, host: Host) -> None:
        # Browsers never come back; new arrivals bring new hosts.
        pass
