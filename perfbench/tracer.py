"""Spans and counts at the boundaries of the program's layers.

The program is not edited.  :meth:`Tracer.install` replaces each public
function (and a few methods) of ``cabintherm`` with a recording wrapper,
and rebinds the name in *every* loaded ``cabintherm`` module that imported
it, so that ``solver.pmv_array`` is traced as well as ``comfort.pmv_array``.
:meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and the benchmark round
that caused it.  Self time is the span's duration less the time its child
spans cover.  Spans stay in memory and are written out by :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute or Class.method, span name).  Private names are traced
# too where they mark a layer boundary the public API hides (Newton, the
# per-scenario model set-up); a target that no longer exists is reported
# in ``trace.missing_targets``.
TARGETS = (
    ("cabintherm.scenario", "load_scenarios_csv", "scenario.load_scenarios_csv"),
    ("cabintherm.scenario", "ScenarioSet.subset", "scenario.subset"),
    ("cabintherm.config", "load_config", "config.load_config"),
    ("cabintherm.comfort", "pmv_array", "comfort.pmv_array"),
    ("cabintherm.comfort", "pmv", "comfort.pmv"),
    ("cabintherm.comfort", "ppd", "comfort.ppd"),
    ("cabintherm.comfort", "mean_pmv", "comfort.mean_pmv"),
    ("cabintherm.comfort", "clothing_insulation", "comfort.clothing_insulation"),
    ("cabintherm.comfort", "fit_pmv_surrogate", "comfort.fit_pmv_surrogate"),
    ("cabintherm.comfort", "get_pmv_surrogate", "comfort.get_pmv_surrogate"),
    ("cabintherm.comfort", "PmvSurrogate.evaluate", "comfort.surrogate_evaluate"),
    ("cabintherm.radiant_geometry", "ceiling_panel_strip",
     "radiant_geometry.ceiling_panel_strip"),
    ("cabintherm.radiant_geometry", "place_passengers",
     "radiant_geometry.place_passengers"),
    ("cabintherm.radiant_geometry", "panel_view_weights",
     "radiant_geometry.panel_view_weights"),
    ("cabintherm.model_core", "compute_heat_flows", "model_core.compute_heat_flows"),
    ("cabintherm.model_core", "solar_heat_flows", "model_core.solar_heat_flows"),
    ("cabintherm.model_core", "hvac_power", "model_core.hvac_power"),
    ("cabintherm.solver", "default_layout", "solver.default_layout"),
    ("cabintherm.solver", "ViewWeightsCache.get", "solver.view_weights_cache"),
    ("cabintherm.solver", "_BranchModel.__init__", "solver.branch_setup"),
    ("cabintherm.solver", "_BranchModel.newton", "solver.rootfind"),
    ("cabintherm.solver", "minimize", "solver.slsqp"),
    ("cabintherm.solver", "solve_window_rootfind", "solver.solve_window_rootfind"),
    ("cabintherm.solver", "solve_window_opt", "solver.solve_window_opt"),
    ("cabintherm.solver", "solve_best", "solver.solve_best"),
    ("cabintherm.solver", "ScenarioSweeper.solve", "solver.sweeper_solve"),
    ("cabintherm.analysis", "solve_set", "analysis.solve_set"),
    ("cabintherm.analysis", "pareto_sweep", "analysis.pareto_sweep"),
    ("cabintherm.analysis", "compare_concepts", "analysis.compare_concepts"),
    ("cabintherm.analysis", "aggregate_annual", "analysis.aggregate_annual"),
)

# Spans that return one solved operating point; the outermost of them on
# the stack is one solve.
SOLVE_SPANS = frozenset({"solver.solve_window_rootfind", "solver.solve_window_opt",
                         "solver.solve_best", "solver.sweeper_solve"})


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent, round, phase)
        self.phase = "setup"
        self.round = -1
        self.missing: list[str] = []
        self.calls = defaultdict(int)     # (phase, name) -> calls
        self.self_s = defaultdict(float)  # (phase, name) -> seconds
        self.extra = defaultdict(float)   # (phase, counter) -> value
        self._stack: list[list] = []      # [span index, name, start, child seconds]
        self._solve_depth = 0
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.round, self.phase))
        frame = [idx, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, name, start, child = frame
        self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end) + self.spans[idx][3:]
        key = (self.phase, name)
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, counter: str, value: float = 1.0) -> None:
        self.extra[(self.phase, counter)] += value

    # -- hooks ---------------------------------------------------------------

    def _before(self, name: str, args) -> None:
        if name == "comfort.pmv_array" and len(args) >= 3:
            self.count("comfort.pmv_array.points", np.broadcast(*args[:3]).size)
        elif name == "radiant_geometry.panel_view_weights":
            if self._stack and self._stack[-1][1] == "solver.view_weights_cache":
                self.count("solver.view_weights_cache.misses")

    def _after(self, name: str, out) -> None:
        if name == "solver.slsqp":
            self.count("solver.slsqp.nit", int(getattr(out, "nit", 0)))
        elif name in SOLVE_SPANS and self._solve_depth == 0:
            route = "opt" if out.solver == "optimization" else "rootfind"
            self.count(f"solver.{route}.solves")
            self.count(f"solver.{route}.iterations", out.iterations)
            if route == "opt" and out.per_passenger_pmv:
                # an empty bus is solved passively, without SLSQP
                self.count("solver.opt.solves_with_passengers")

    def _wrap(self, name: str, fn):
        tracer = self
        is_solve = name in SOLVE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._before(name, args)
            if is_solve:
                tracer._solve_depth += 1
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if is_solve:
                    tracer._solve_depth -= 1
            tracer._after(name, out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the program must already be imported."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "cabintherm" or n.startswith("cabintherm."))]
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = None if owner is None else owner.__dict__.get(meth)
                if not callable(orig):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._patched.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def total(self, phase: str, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name in one phase."""
        return self.calls[(phase, name)], self.self_s[(phase, name)]

    def layer_self_s(self, phase: str, layer: str) -> float:
        return sum(v for (p, n), v in self.self_s.items()
                   if p == phase and n.split(".", 1)[0] == layer)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "round": rnd, "phase": phase}))
                fh.write("\n")

