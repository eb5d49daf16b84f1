"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces module attributes of ``mfcert`` with timing or
counting wrappers and ``Tracer.uninstall`` puts the originals back.  A
function imported into several modules (``msd_phi`` lives in ``plant``,
``falsify`` and the package root) is replaced in every module that holds it,
so calls through any of those names are seen.  Spans are kept in memory as
durations per name; counters are plain integers.  The program itself is not
changed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import defaultdict

import mfcert
from mfcert import cli, config, falsify, plant, roa, simulate, steady_state, synthesis

MODULES = (mfcert, cli, config, falsify, plant, roa, simulate, steady_state, synthesis)
ROA_KINDS = ("MFC1", "MFC2", "SL", "SLHG")
STAGES = ("analyze", "steady_state", "roa", "simulate", "falsify")
WRITERS = ("_write_json", "_write_sweep_csv", "_write_boundaries_csv",
           "_write_violations_csv")


class Tracer:
    """Spans and counters recorded at the boundaries of the package modules."""

    def __init__(self):
        self.spans = defaultdict(list)
        self.counts = defaultdict(int)
        self._saved = []

    # -- recording -------------------------------------------------------

    def _timing(self, fn, name_of, after=None):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            spans[name_of(args, kwargs)].append(time.perf_counter() - t0)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn, name, weight=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, home, attr, make):
        """Replace ``home.attr`` and every module alias of the same object."""
        original = getattr(home, attr)
        wrapper = make(original)
        for module in MODULES:
            if module.__dict__.get(attr) is original:
                self._replace(module, attr, wrapper)

    def _timed(self, home, attr, name, after=None):
        self._replace_everywhere(
            home, attr, lambda fn: self._timing(fn, lambda a, k: name, after))

    def install(self):
        """Wrap the layer boundaries; call ``uninstall`` to restore them."""
        counts = self.counts

        # plant: evaluation counts of the drift and the uncertainty
        self._replace_everywhere(plant, "msd_f",
                                 lambda fn: self._counting(fn, "plant.f_calls"))
        self._replace_everywhere(plant, "msd_phi",
                                 lambda fn: self._counting(fn, "plant.phi_calls"))

        # config and synthesis
        self._timed(config, "parse_config", "config.parse")
        self._timed(synthesis, "design_gains", "synthesis.design_gains")
        self._timed(synthesis, "certify", "synthesis.certify")

        # steady_state
        self._timed(steady_state, "mfc_equilibria", "steady_state.equilibria")
        self._timed(steady_state, "single_loop_equilibria", "steady_state.equilibria")
        self._timed(steady_state, "sl_root_sweep", "steady_state.sl_root_sweep")

        # roa: estimate time and valid/attempted per kind
        def count_valid(args, kwargs, est):
            counts[f"roa.attempted.{est.kind}"] += 1
            counts[f"roa.valid.{est.kind}"] += int(est.valid)

        for kind in ROA_KINDS:
            self._timed(roa, f"estimate_{kind.lower()}", "roa.estimate", count_valid)
        self._timed(roa, "mfc2_region_sweep", "roa.region_sweep")
        self._replace(roa.RoaEstimate, "boundary",
                      self._timing(roa.RoaEstimate.boundary, lambda a, k: "roa.boundary"))

        # simulate: the scalar path; its RK4 steps are counted in its own module
        self._timed(simulate, "simulate_closed_loop", "simulate.closed_loop")
        self._timed(simulate, "steady_state_of", "simulate.steady_state_of")
        self._replace(simulate, "_rk4_components",
                      self._counting(simulate._rk4_components, "simulate.rk4_steps"))

        # falsify: the batched path, per set, with its steps and rhs calls
        def tally(args, kwargs, report):
            counts["falsify.samples"] += report.samples
            counts["falsify.converged"] += report.converged

        self._replace_everywhere(falsify, "falsify_roa", lambda fn: self._timing(
            fn, lambda a, k: f"falsify.set.{a[0].kind}", tally))
        self._timed(falsify, "sample_in_set", "falsify.sample_in_set")
        self._timed(falsify, "gamma_empirical", "falsify.gamma_empirical")
        self._replace(falsify, "_rk4_components", self._counting(
            falsify._rk4_components, "falsify.sample_steps",
            weight=lambda a: len(a[2][0])))
        build = falsify.build_closed_loop
        count_rhs = functools.partial(self._counting, name="falsify.rhs_calls")

        @functools.wraps(build)
        def build_counted(*args, **kwargs):
            loop = build(*args, **kwargs)
            return dataclasses.replace(loop, rhs=count_rhs(loop.rhs))

        self._replace(falsify, "build_closed_loop", build_counted)

        # cli: stage functions, report writers and the bytes they write
        for stage in STAGES:
            self._timed(cli, f"run_{stage}", f"cli.stage.{stage}")

        def written(path_index):
            def after(args, kwargs, result):
                counts["cli.bytes_written"] += os.path.getsize(args[path_index])
            return after

        for attr in WRITERS:
            self._timed(cli, attr, "cli.write", written(0))
        self._replace(simulate.Trajectory, "to_csv", self._timing(
            simulate.Trajectory.to_csv, lambda a, k: "cli.write", written(1)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def _mean(self, name, scale):
        spans = self.spans.get(name, [])
        return scale * sum(spans) / len(spans) if spans else 0.0

    def _total(self, name, scale):
        return scale * sum(self.spans.get(name, []))

    def _ratio(self, num, den):
        return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}; unused layers read 0."""
        m = {}
        for kind in ROA_KINDS:
            m[f"falsify.set_s.{kind}"] = (self._mean(f"falsify.set.{kind}", 1.0), "s")
        m["falsify.sample_in_set_ms"] = (self._mean("falsify.sample_in_set", 1e3), "ms")
        m["falsify.gamma_empirical_ms"] = (self._mean("falsify.gamma_empirical", 1e3), "ms")
        m["falsify.sample_steps"] = (self.counts["falsify.sample_steps"], "count")
        m["falsify.rhs_calls"] = (self.counts["falsify.rhs_calls"], "count")
        m["falsify.converged_ratio"] = (
            self._ratio("falsify.converged", "falsify.samples"), "ratio")
        m["simulate.closed_loop_ms"] = (self._mean("simulate.closed_loop", 1e3), "ms")
        m["simulate.steady_state_of_ms"] = (
            self._mean("simulate.steady_state_of", 1e3), "ms")
        m["simulate.rk4_steps"] = (self.counts["simulate.rk4_steps"], "count")
        m["plant.f_calls"] = (self.counts["plant.f_calls"], "count")
        m["plant.phi_calls"] = (self.counts["plant.phi_calls"], "count")
        m["roa.region_sweep_ms"] = (self._mean("roa.region_sweep", 1e3), "ms")
        m["roa.estimate_ms"] = (self._mean("roa.estimate", 1e3), "ms")
        m["roa.boundary_ms"] = (self._mean("roa.boundary", 1e3), "ms")
        for kind in ROA_KINDS:
            m[f"roa.valid_ratio.{kind}"] = (
                self._ratio(f"roa.valid.{kind}", f"roa.attempted.{kind}"), "ratio")
        m["steady_state.equilibria_ms"] = (self._mean("steady_state.equilibria", 1e3), "ms")
        m["steady_state.sl_root_sweep_ms"] = (
            self._mean("steady_state.sl_root_sweep", 1e3), "ms")
        designs = len(self.spans.get("synthesis.design_gains", []))
        design_s = self._total("synthesis.design_gains", 1.0) + self._total(
            "synthesis.certify", 1.0)
        m["synthesis.design_ms"] = (1e3 * design_s / designs if designs else 0.0, "ms")
        m["config.parse_ms"] = (self._mean("config.parse", 1e3), "ms")
        for stage in STAGES:
            m[f"cli.stage_s.{stage}"] = (self._total(f"cli.stage.{stage}", 1.0), "s")
        m["cli.write_ms"] = (self._total("cli.write", 1e3), "ms")
        m["cli.bytes_written"] = (self.counts["cli.bytes_written"], "count")
        return m
