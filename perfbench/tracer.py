"""Per-layer tracing of fedres from outside the package.

Tracing rebinds the module and class attributes that fedres callers look
up (``harness.compute_regret``, ``erm.solve_gram``, ``DelayedChannel.fetch_global``
...) to timing wrappers, and restores the originals afterwards; nothing
under ``src/`` is edited. Each wrapped call is attributed to a key such as
``solver.solve_gram``; the tracer keeps calls, inclusive time and self
time (inclusive time minus the time of wrapped calls nested inside) per
key. Calls at coarse boundaries (dataset build, learner run, metrics) are
also kept as spans with name, start, end, parent and rollout id. Hot
per-round calls (projection, channel operations, solves) are aggregated
only: one span per call would dominate both the run time and the memory.

An attribute that does not exist in the traced program is skipped, so a
layer that a refactor removed reports zero calls rather than breaking the
run.
"""

from __future__ import annotations

import time

import numpy as np

_ACTIVE: "Tracer | None" = None


def active() -> "Tracer | None":
    """The installed tracer of this process (inherited by forked pool workers)."""
    return _ACTIVE


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.begin(-1)

    # -- per-rollout collection ------------------------------------------

    def begin(self, rollout: int) -> None:
        """Start a fresh collection whose spans carry this rollout id."""
        self.rollout = rollout
        self.stack: list[list] = [[0.0, -1]]  # frames: [child seconds, span index]
        self.layers: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []
        self.channels: list = []

    def collect(self) -> dict:
        """Everything gathered since begin(), as plain picklable data."""
        return {
            "layers": self.layers,
            "counts": self.counts,
            "spans": [
                {
                    "id": f"{self.rollout}.{i}",
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent < 0 else f"{self.rollout}.{parent}",
                    "rollout": self.rollout,
                }
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
        }

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, key: str, span: bool = False, after=None):
        """Timing wrapper for fn; after(args, kwargs, out, start_state) runs untimed."""
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0, -1]
            if span:
                frame[1] = len(tracer.spans)
                tracer.spans.append([key, 0.0, 0.0, _open_span(stack)])
            state = None if after is None else len(tracer.channels)
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                acc = tracer.layers.get(key)
                if acc is None:
                    acc = tracer.layers[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
                if span:
                    tracer.spans[frame[1]][1:3] = [t0, t1]
            if after is not None:
                t2 = perf()
                after(args, kwargs, out, state)
                # bookkeeping is charged to nobody's self time
                stack[-1][0] += perf() - t2
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def rollout_span(self, fn, *args, **kwargs):
        """Run fn as the root span of the current rollout."""
        return self.wrap(fn, "rollout", span=True)(*args, **kwargs)

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        global _ACTIVE
        from fedres import bandit, baselines, channel, engine, erm, harness, solver

        rb = self._rebind
        for name in ("gen_example2", "gen_appendixc", "partition_federated"):
            rb(harness, name, lambda f: self.wrap(f, "datagen.build", span=True))
        rb(harness, "load_libsvm", lambda f: self.wrap(f, "datagen.parse", span=True))
        rb(harness, "compute_regret", lambda f: self.wrap(f, "harness.regret", span=True))
        rb(harness, "evaluate_accuracy", lambda f: self.wrap(f, "harness.accuracy", span=True))
        rb(harness, "alternating_joint_ls",
           lambda f: self.wrap(f, "solver.alternating_joint_ls", span=True))
        for owner in (harness, baselines):
            rb(owner, "run_fedres_sgd",
               lambda f: self.wrap(f, "engine", span=True, after=self._after_engine))
        for name in ("run_fedres_erm", "run_fictitious_play"):
            rb(harness, name, lambda f: self.wrap(f, "erm", span=True, after=self._after_erm))
        for owner in (engine, erm):
            rb(owner, "build_streams", lambda f: self.wrap(f, "engine.build_streams", span=True))
        rb(engine, "project_ball",
           lambda f: self.wrap(f, "core.project_ball", after=self._after_project))
        for owner in (erm, solver):
            rb(owner, "solve_gram", lambda f: self.wrap(f, "solver.solve_gram",
                                                        after=self._after_solve))
        system = getattr(engine, "SgdSystem", None)
        if system is not None:
            rb(system, "run_round", lambda f: self.wrap(f, "engine"))
        chan = getattr(channel, "DelayedChannel", None)
        if chan is not None:
            for name in ("publish_global", "fetch_global", "uplink_send", "uplink_receive",
                         "snapshot"):
                rb(chan, name, lambda f: self.wrap(f, "channel"))
            rb(chan, "__init__", self._registering_init)
        rb(bandit, "run_epsilon_greedy",
           lambda f: self.wrap(f, "bandit.policy", span=True, after=self._after_greedy))
        rb(bandit, "run_uniform_policy",
           lambda f: self.wrap(f, "bandit.policy", span=True, after=self._after_policy))
        rb(bandit, "cb_regret", lambda f: self.wrap(f, "bandit.cb_regret", span=True))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    # -- per-call bookkeeping ---------------------------------------------

    def _registering_init(self, original):
        tracer = self

        def __init__(chan, *args, **kwargs):
            original(chan, *args, **kwargs)
            tracer.channels.append(chan)

        return __init__

    def _check_inflight(self, first_channel: int) -> None:
        # Every message sent in the last alpha_i rounds is still queued.
        # A channel whose queue can no longer be read fails the check.
        for chan in self.channels[first_channel:]:
            self.count("channel.channels")
            published = getattr(chan, "_last_published", None)
            pending = getattr(chan, "pending_payloads", None)
            if published is None or pending is None:
                self.count("channel.inflight_mismatch")
                continue
            expected = sum(min(a, published) for a in chan.delays.alpha)
            self.count("channel.inflight", pending)
            if pending != expected:
                self.count("channel.inflight_mismatch")

    def _after_results(self, out) -> None:
        self.count("results.traces", len(out.traces))
        self.count("results.runs")

    def _after_engine(self, args, kwargs, out, first_channel) -> None:
        self._after_results(out)
        self.count("engine.rounds", out.rounds)
        self.count("engine.samples", out.rounds * out.clients * out.batch_size)
        self._check_inflight(first_channel)

    def _after_erm(self, args, kwargs, out, first_channel) -> None:
        self._after_results(out)
        self.count("erm.samples", out.rounds * out.clients)
        self._check_inflight(first_channel)

    def _after_policy(self, args, kwargs, out, first_channel) -> None:
        self._after_results(out)
        self.count("bandit.rounds", out.rounds)
        self._check_inflight(first_channel)

    def _after_greedy(self, args, kwargs, out, first_channel) -> None:
        self._after_policy(args, kwargs, out, first_channel)
        self.count("bandit.greedy_rounds", out.rounds)
        self.count("bandit.explore_rounds", out.exploration_rounds)
        self.count("engine.rounds", out.exploration_rounds)
        self.count("engine.samples", out.exploration_rounds * out.clients)

    def _after_project(self, args, kwargs, out, _state) -> None:
        v = args[0]
        radius = args[1] if len(args) > 1 else kwargs["radius"]
        if float(np.linalg.norm(v)) > radius:
            self.count("core.project_ball.active")

    def _after_solve(self, args, kwargs, out, _state) -> None:
        radius = args[2] if len(args) > 2 else kwargs["radius"]
        # The answer lies on the ball exactly when the multiplier search ran.
        if len(out) and float(np.linalg.norm(out)) >= radius * (1.0 - 1e-9):
            self.count("solver.solve_gram.active")


def _open_span(stack: list[list]) -> int:
    """Index of the innermost open span, the parent of a new one (-1: none)."""
    for frame in reversed(stack):
        if frame[1] >= 0:
            return frame[1]
    return -1


def merge(payloads: list[dict]) -> dict:
    """Sum per-rollout collections into one."""
    layers: dict[str, list] = {}
    counts: dict[str, float] = {}
    spans: list[dict] = []
    for p in payloads:
        for key, (calls, incl, self_s) in p["layers"].items():
            acc = layers.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, value in p["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans.extend(p["spans"])
    return {"layers": layers, "counts": counts, "spans": spans}
