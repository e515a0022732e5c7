"""Per-layer spans and counters for the traced run.

The tracer replaces public crashguard names in the module namespaces
where their callers look them up (``crashguard.simulator.step`` as seen by
``run``, ``crashguard.prediction.propagate`` as seen by flow 2, ...), so
nothing under ``src/`` changes.  Each wrapper records one span: its
duration, and its self time, which is the duration minus the time of the
wrapped calls nested inside it.  A name that no longer exists is listed
as absent and its metrics read 0.

``LAYERS`` is also the prediction table: for each layer, the end-to-end
metric and workload its numbers should move.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import time
from collections import defaultdict

import numpy as np

# span key -> [(module, name)] wrapped as seen by that module's callers
WRAPPED = {
    "markov.propagate": [("crashguard.prediction", "propagate")],
    # one passage build per stationary_distribution call from flow 3
    "markov.passage": [
        ("crashguard.prediction", "stationary_distribution"),
        ("crashguard.prediction", "limiting_matrix"),
        ("crashguard.prediction", "fundamental_matrix"),
        ("crashguard.prediction", "mean_first_passage"),
    ],
    "markov.validate": [
        ("crashguard.markov", "validate_stochastic"),
        ("crashguard.estimation", "validate_stochastic"),
    ],
    "prediction.assess": [("crashguard.prediction", "assess"), ("crashguard.simulator", "assess")],
    "simulator.step": [("crashguard.simulator", "step")],
    "simulator.load": [("crashguard.simulator", "load_scenario")],
    "sensing": [
        ("crashguard.simulator", "hypotenuse_from_tof"),
        ("crashguard.simulator", "longitudinal_distance"),
    ],
    "estimation.ingest": [("crashguard.estimation", "ingest_trajectories")],
    "estimation.build": [("crashguard.estimation", "build_vehicle_model")],
    "estimation.model_from_dict": [
        ("crashguard.estimation", "model_from_dict"),
        ("crashguard.simulator", "model_from_dict"),
    ],
    # to-dict plus dumps_stable, as the benchmark's ops call them
    "cli.emit": [
        ("crashguard.cli", "dumps_stable"),
        ("crashguard.simulator", "report_to_dict"),
        ("crashguard.prediction", "assessment_to_dict"),
        ("crashguard.estimation", "model_to_dict"),
    ],
}

# layer -> (its metrics, the end-to-end metrics and workloads they should move)
LAYERS = {
    "markov": (
        "markov.propagate.{calls,self_ms,mean_exponent}, markov.eig_calls, markov.eig_fallbacks, "
        "markov.passage.{calls,self_ms}, markov.validate.{calls,self_ms}",
        "replay items_per_s (ticks) and op_p50_ms through per-chain caching; "
        "encounters ops_per_s through batching",
    ),
    "prediction": (
        "prediction.assess.{calls,self_ms}, prediction.outcome.*, prediction.passage_builds_per_chain",
        "ops_per_s on replay and encounters",
    ),
    "simulator": (
        "simulator.step.{calls,self_ms}, simulator.step_p50_us, simulator.step_p90_us, simulator.load.self_ms",
        "replay items_per_s (ticks)",
    ),
    "sensing": (
        "sensing.{calls,self_ms}",
        "no visible move: under 1% of a tick, measured so a regression shows",
    ),
    "estimation": (
        "estimation.{ingest.self_ms,ingest.rows,build.self_ms,model_from_dict.self_ms,unobserved_lane_rows}",
        "estimate items_per_s (rows) and peak_rss_mb; encounters op_p50_ms through model_from_dict",
    ),
    "cli": (
        "cli.emit.{self_ms,bytes}",
        "replay op_p50_ms",
    ),
}

OUTCOMES = ("non_closing", "unstable", "below_threshold", "acc", "steering", "failed")


def assessment_outcome(t, speed_stable, actions) -> str:
    """One outcome per assessment from its t, speed gate and action values;
    acc wins when both actions fire."""
    if t is None:
        return "non_closing"
    if not speed_stable:
        return "unstable"
    if not actions:
        return "below_threshold"
    return "acc" if "acc_on" in actions else "steering"


class Tracer:
    """Spans and counters for one traced phase; install() swaps the names in."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.step_us = []
        self.exponents = []
        self.eig_calls = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.passage_chains = set()
        self.passage_builds = 0
        self.ingest_rows = 0
        self.unobserved_lane_rows = 0
        self.emit_bytes = 0
        self.absent = []
        self._stack = []
        self._installed = []
        self._root = self.span("bench", lambda fn, *args: fn(*args))

    # --- spans ---

    def span(self, key, fn, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                failed = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[key] += elapsed - nested
                self.calls[key] += 1
                if after is not None:
                    after(args, kwargs, result, failed, elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def invoke(self, fn, *args):
        """Run one benchmark op as a root span, so its unwrapped time shows."""
        return self._root(fn, *args)

    # --- counters taken at the wrapped boundaries ---

    def _after_propagate(self, args, kwargs, result, failed, elapsed):
        t = float(args[2] if len(args) > 2 else kwargs["t"])
        self.exponents.append(t)
        if abs(t - round(t)) > 1e-9:
            self.eig_calls += 1

    def _after_stationary(self, args, kwargs, result, failed, elapsed):
        chain = args[0] if args else next(iter(kwargs.values()))
        self.passage_builds += 1
        self.passage_chains.add(hashlib.blake2b(np.asarray(chain.entries).tobytes(), digest_size=8).digest())

    def _after_assess(self, args, kwargs, result, failed, elapsed):
        if failed is not None:
            self.outcomes["failed"] += 1
            return
        actions = [a.action.value for a in result.actions]
        self.outcomes[assessment_outcome(result.t, result.speed_stable, actions)] += 1

    def _after_step(self, args, kwargs, result, failed, elapsed):
        self.step_us.append(elapsed * 1e6)

    def _after_ingest(self, args, kwargs, result, failed, elapsed):
        if result is not None:
            self.ingest_rows += sum(len(records) for records in result.values())

    def _after_model(self, args, kwargs, result, failed, elapsed):
        if result is not None:
            self.unobserved_lane_rows += len(result.lane_unobserved)

    def _after_dumps(self, args, kwargs, result, failed, elapsed):
        if result is not None:
            self.emit_bytes += len(result)

    def _hook(self, key, name):
        return {
            "markov.propagate": self._after_propagate,
            "prediction.assess": self._after_assess,
            "simulator.step": self._after_step,
            "estimation.ingest": self._after_ingest,
            "estimation.build": self._after_model,
            "estimation.model_from_dict": self._after_model,
        }.get(key) or {
            "stationary_distribution": self._after_stationary,
            "dumps_stable": self._after_dumps,
        }.get(name)

    def install(self):
        for key, places in WRAPPED.items():
            for module_name, name in places:
                module = importlib.import_module(module_name)
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                setattr(module, name, self.span(key, original, self._hook(key, name)))
                self._installed.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    # --- report ---

    def metrics(self, ops: int, eig_fallbacks: int) -> dict:
        """Per-layer metrics, counts and times per op of the traced phase."""
        per = 1.0 / max(ops, 1)

        def ms(key):
            return self.self_s[key] * 1e3 * per

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        out = {
            "markov.propagate.calls": (self.calls["markov.propagate"] * per, "count/op", "lower"),
            "markov.propagate.self_ms": (ms("markov.propagate"), "ms/op", "lower"),
            "markov.propagate.mean_exponent": (
                math.fsum(self.exponents) / len(self.exponents) if self.exponents else 0.0, "steps", "lower"),
            "markov.eig_calls": (self.eig_calls * per, "count/op", "lower"),
            "markov.eig_fallbacks": (eig_fallbacks * per, "count/op", "lower"),
            "markov.passage.calls": (self.passage_builds * per, "count/op", "lower"),
            "markov.passage.self_ms": (ms("markov.passage"), "ms/op", "lower"),
            "markov.validate.calls": (self.calls["markov.validate"] * per, "count/op", "lower"),
            "markov.validate.self_ms": (ms("markov.validate"), "ms/op", "lower"),
            "prediction.assess.calls": (self.calls["prediction.assess"] * per, "count/op", "lower"),
            "prediction.assess.self_ms": (ms("prediction.assess"), "ms/op", "lower"),
        }
        for outcome in OUTCOMES:
            better = "lower" if outcome == "failed" else "higher"
            out[f"prediction.outcome.{outcome}"] = (self.outcomes[outcome] * per, "count/op", better)
        out.update({
            "prediction.passage_builds_per_chain": (
                self.passage_builds / len(self.passage_chains) if self.passage_chains else 0.0, "ratio", "lower"),
            "simulator.step.calls": (self.calls["simulator.step"] * per, "count/op", "lower"),
            "simulator.step.self_ms": (ms("simulator.step"), "ms/op", "lower"),
            "simulator.step_p50_us": (pct(self.step_us, 50), "us", "lower"),
            "simulator.step_p90_us": (pct(self.step_us, 90), "us", "lower"),
            "simulator.load.self_ms": (ms("simulator.load"), "ms/op", "lower"),
            "sensing.calls": (self.calls["sensing"] * per, "count/op", "lower"),
            "sensing.self_ms": (ms("sensing"), "ms/op", "lower"),
            "estimation.ingest.self_ms": (ms("estimation.ingest"), "ms/op", "lower"),
            "estimation.ingest.rows": (self.ingest_rows * per, "rows/op", "higher"),
            "estimation.build.self_ms": (ms("estimation.build"), "ms/op", "lower"),
            "estimation.model_from_dict.self_ms": (ms("estimation.model_from_dict"), "ms/op", "lower"),
            "estimation.unobserved_lane_rows": (self.unobserved_lane_rows * per, "count/op", "lower"),
            "cli.emit.self_ms": (ms("cli.emit"), "ms/op", "lower"),
            "cli.emit.bytes": (self.emit_bytes * per, "B/op", "lower"),
            "bench.self_ms": (ms("bench"), "ms/op", "lower"),
        })
        return out
