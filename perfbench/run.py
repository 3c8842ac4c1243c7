"""Layered benchmark of ``cabintherm``: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload annual_hp --seed 1 --seconds 10 --trace 0

The run writes the seeded synthetic year to CSV, times the program's
set-up in fresh interpreters, then repeats whole rounds of the workload
for ``--seconds`` seconds, checks the last round against :mod:`oracle`,
and prints one JSON object as its last line of output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``solves_per_s``, ``peak_rss_mb``); with ``--trace 1`` the program is
wrapped by :mod:`tracer` and the metrics are per layer, per round.  The
exit code is 0 for a correct run, 1 when a check failed, 2 when the
program cannot be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3   # set-up probes per run; setup_s is their median
PROBE_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and import the program
    from there; None when the checkout does not hold it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cabintherm", "__init__.py")):
        return None
    sys.path[:0] = [src, HERE]
    import cabintherm
    if os.path.dirname(os.path.dirname(os.path.abspath(cabintherm.__file__))) != src:
        return None
    return cabintherm


def _setup_seconds(workload: str, csv_path: str, seed: int) -> list[float]:
    """Spawn-to-set-up-done time of ``SETUP_REPEATS`` fresh interpreters."""
    env = dict(os.environ)
    env.pop("CABINTHERM_CONFIG", None)
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), ROOT, workload,
             csv_path, str(seed)],
            capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def _timed_rounds(wl, s, seconds: float, rounds: int | None = None, tracer=None):
    """The whole number of rounds whose time is nearest to ``seconds``, at
    least one (or exactly ``rounds``).

    Returns (rounds run, wall seconds, failed solves, last round, digests).
    """
    done = failed = 0
    digests = []
    last = None
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = done
            with tracer.span("bench.round"):
                last = wl.run(s)
        else:
            last = wl.run(s)
        done += 1
        failed += last.failed
        digests.append(last.digest)
        elapsed = time.perf_counter() - t0
        if (done == rounds if rounds is not None
                else elapsed + elapsed / done / 2.0 >= seconds):
            return done, elapsed, failed, last, digests


def _peak_rss_mb(workload: str) -> float:
    """Peak resident memory of this process; with a process pool, of the
    largest worker too.  (Set-up probes are children as well, but each
    does a subset of this process's work and stays below it.)"""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.endswith("jobs2"):
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _layer_metrics(tracer, rounds: int, overhead: float) -> dict:
    """Per-layer figures of the traced timed phase, per round; set-up spans
    are reported as totals of the one in-process set-up."""
    def per_round(name):
        calls, self_s = tracer.total("timed", name)
        return calls / rounds, self_s / rounds

    def extra(counter):
        return tracer.extra[("timed", counter)] / rounds

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for span in ("comfort.pmv_array", "comfort.surrogate_evaluate",
                 "solver.slsqp", "solver.rootfind", "solver.branch_setup",
                 "radiant_geometry.ceiling_panel_strip",
                 "radiant_geometry.place_passengers",
                 "radiant_geometry.panel_view_weights",
                 "model_core.compute_heat_flows", "analysis.aggregate_annual"):
        calls, self_s = per_round(span)
        put(f"{span}.calls", calls, "count/round")
        put(f"{span}.self_s", self_s, "s/round")
    gets = per_round("solver.view_weights_cache")[0]
    put("solver.view_weights_cache.calls", gets, "count/round")
    put("comfort.pmv_array.points", extra("comfort.pmv_array.points"), "count/round")
    put("solver.slsqp.nit", extra("solver.slsqp.nit"), "count/round")
    misses = extra("solver.view_weights_cache.misses")
    put("solver.view_weights_cache.hit_ratio", (gets - misses) / gets if gets else 0.0,
        "ratio")
    with_pax = extra("solver.opt.solves_with_passengers")
    put("solver.slsqp.calls_per_solve",
        per_round("solver.slsqp")[0] / with_pax if with_pax else 0.0, "calls/solve")
    n_root = extra("solver.rootfind.solves")
    n_opt = extra("solver.opt.solves")
    put("solver.solves", n_root + n_opt, "count/round")
    put("solver.rootfind.iterations_per_solve",
        extra("solver.rootfind.iterations") / n_root if n_root else 0.0, "iter/solve")
    put("solver.opt.iterations_per_solve",
        extra("solver.opt.iterations") / n_opt if n_opt else 0.0, "iter/solve")

    for layer in ("comfort", "radiant_geometry", "model_core", "solver", "analysis"):
        put(f"{layer}.self_s", tracer.layer_self_s("timed", layer) / rounds, "s/round")
    for name in ("config.load_config", "scenario.load_scenarios_csv",
                 "comfort.fit_pmv_surrogate"):
        put(f"{name}.self_s", tracer.total("setup", name)[1], "s")

    put("trace.overhead", overhead, "ratio")
    put("trace.spans", sum(1 for sp in tracer.spans if sp[5] == "timed") / rounds,
        "count/round")
    put("trace.missing_targets", len(tracer.missing), "count")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_program() is None:
        print(f"perfbench: no cabintherm package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import inputs
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.environ.pop("CABINTHERM_CONFIG", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    seed = inputs.input_seed(args.workload, args.seed)
    csv_path = inputs.year_csv(OUT_DIR, seed)

    tracer = Tracer() if args.trace else None
    if tracer is None:
        setup_samples = _setup_seconds(args.workload, csv_path, seed)
    else:
        tracer.install()
    try:
        s = inputs.setup(args.workload, csv_path, seed)
        if tracer is not None:
            tracer.phase = "timed"
        rounds, elapsed, failed, last, digests = _timed_rounds(wl, s, args.seconds,
                                                               tracer=tracer)
        peak_mb = _peak_rss_mb(args.workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
    solves = wl.solves(s)
    if tracer is not None:
        plain = _timed_rounds(wl, s, args.seconds, rounds=rounds)[1]
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(trace_path)

    attempted = rounds * solves
    errors = []
    if last.output is not None:
        errors = wl.check(s, last)
    if len(set(digests)) != 1:
        errors.append(f"rounds disagree: {len(set(digests))} distinct results "
                      f"in {rounds} rounds")

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "solves_per_s": {"value": (attempted - failed) / elapsed, "unit": "solves/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        metrics = _layer_metrics(tracer, rounds, elapsed / plain - 1.0)

    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(f"{args.workload}: {rounds} rounds of {solves} solves in {elapsed:.3f} s, "
          f"{failed} failed, {len(errors)} check failures")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if tracer is not None:
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
