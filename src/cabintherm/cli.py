"""Command-line interface.

Subcommands: ``solve`` (one scenario, full heat-flow report), ``sweep``
(Pareto fronts per heating concept), ``sensitivity`` (one-at-a-time
parameter study), ``monthly`` (per-month summary), ``gen`` (synthetic
scenario dataset).  Every command writes a run manifest next to its
outputs; rerunning with the same seed and inputs reproduces all CSV/JSON
outputs byte-for-byte (the manifest's wall-clock duration is the one
intentionally varying field).

Exit codes: 0 success; 2 configuration or usage error; 3 data error;
4 solver failure, including a non-finite evaluation of the heat balance or
of the comfort model.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import (DEFAULT_SENSITIVITY_PARAMS, compare_concepts, monthly_table,
                       oat_sensitivity, solve_set)
from .config import AppConfig, load_config
from .errors import (CabinThermError, ConfigError, DataError, EvaluationError,
                     SolverError)
from .model_core import KELVIN, Scenario, c_to_k
from .radiant_geometry import (mixed_radiant_temperature, panel_view_weights,
                               place_passengers)
from .scenario import (ScenarioSet, load_scenarios_csv, placement_seed,
                       save_scenarios_csv, synthesize_dataset)
from .solver import (balance_tolerance_report, solve_best, solve_window_opt,
                     solve_window_rootfind)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_dir: str, args, command: str, scenario_source: str,
                    duration: float) -> None:
    manifest = {
        "command": command,
        "config_path": args.config or os.environ.get("CABINTHERM_CONFIG") or "",
        "scenario_source": scenario_source,
        "seed": args.seed,
        "out_dir": os.path.abspath(out_dir),
        "tool_version": __version__,
        "duration_s": round(duration, 3),
    }
    _atomic_write(os.path.join(out_dir, "run_manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return repr(round(float(x), 6))


def _load_set(args) -> ScenarioSet:
    if not args.scenarios:
        raise DataError("this command needs --scenarios PATH")
    return load_scenarios_csv(args.scenarios)


def _ensure_out(args) -> str:
    if not args.out:
        raise ConfigError("this command needs --out DIR")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-+" else "_" for c in name)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _scenario_from_args(args, app: AppConfig) -> Scenario:
    if args.scenarios:
        sset = load_scenarios_csv(args.scenarios)
        if args.id is None:
            raise DataError("--scenarios given: select a row with --id")
        for s in sset:
            if s.id == args.id:
                return s
        raise DataError(f"scenario id {args.id!r} not found in {args.scenarios}")
    required = {"t_inf_c": args.t_inf_c, "month": args.month}
    missing = [k for k, v in required.items() if v is None]
    if missing:
        raise DataError(f"inline scenario needs --{missing[0].replace('_', '-')}")
    if not 1 <= args.month <= 12:
        raise ConfigError(f"month must be 1..12, got {args.month}")
    beta = math.radians(args.beta_deg)
    i_dni, i_dhi = args.i_dni, args.i_dhi
    if beta <= 0:
        i_dni = i_dhi = 0.0
    zeta_sh = (args.zeta_sh if args.zeta_sh is not None
               else app.climate.zeta_sh_by_month[args.month - 1])
    return Scenario(T_inf=c_to_k(args.t_inf_c), I_dni=i_dni, I_dhi=i_dhi,
                    beta=beta, N_pass=args.n_pass, zeta_door=args.zeta_door,
                    zeta_sh=zeta_sh, month=args.month, id=args.id or "inline")


def cmd_solve(args) -> int:
    app = load_config(args.config)
    scn = _scenario_from_args(args, app)
    spec = app.comfort
    if args.window:
        spec = spec.with_window(*_parse_window(args.window))
    elif args.psi_tgt is not None:
        # a PMV target is a window of zero width
        spec = spec.with_window(args.psi_tgt, args.psi_tgt)

    t0 = time.perf_counter()
    solvers = ["rootfind", "opt"] if args.solver == "both" else [args.solver]
    results = []
    for method in solvers:
        if args.rh == "auto":
            res = solve_best(scn, app.bus, spec, method=method,
                             layout=app.layout, seed=args.seed)
        else:
            fn = solve_window_opt if method == "opt" else solve_window_rootfind
            res = fn(scn, app.bus, spec, rh_on=(args.rh == "on"),
                     layout=app.layout, seed=args.seed)
        results.append(res)
    duration = time.perf_counter() - t0

    res = results[0]
    print(f"scenario {scn.id!r}: T_inf={scn.T_inf - KELVIN:+.1f} C, "
          f"I_dni={scn.I_dni:.0f} W/m2, I_dhi={scn.I_dhi:.0f} W/m2, "
          f"N_pass={scn.N_pass}, zeta_door={scn.zeta_door}, month={scn.month}")
    print(f"mode: {res.mode}   solver: {res.solver}   rh_used: {res.rh_used}   "
          f"iterations: {res.iterations}")
    st = res.state
    print(f"temperatures [C]: T_cab={st.T_cab - KELVIN:7.2f}  "
          f"T_si={st.T_si - KELVIN:7.2f}  T_so={st.T_so - KELVIN:7.2f}"
          + (f"  T_rh={st.T_rh - KELVIN:7.2f}" if res.rh_used else ""))
    print("heat flows [W]:")
    for name, val in res.flows.as_dict().items():
        print(f"  {name:10s} {val:12.1f}")
    if scn.N_pass > 0:
        per = np.array(res.per_passenger_pmv)
        print(f"comfort: mean PMV = {res.mean_psi:+.4f}  PPD = {res.ppd:.1f} %  "
              f"(per passenger {per.min():+.3f} .. {per.max():+.3f})")
    else:
        print("comfort: empty bus, comfort constraint inactive")
    worst, tol, ok = balance_tolerance_report(res, scn, app.bus)
    print(f"energy closure: max residual {worst:.3e} W vs tolerance {tol:.3e} W "
          f"-> {'OK' if ok else 'VIOLATED'}")
    print(f"power: P_hvac = {res.flows.P_hvac:.1f} W   P_rh = {res.flows.P_rh:.1f} W   "
          f"P_tot = {res.P_tot:.1f} W")
    if len(results) == 2:
        rel = abs(results[0].P_tot - results[1].P_tot) / max(results[0].P_tot, 1.0)
        print(f"solver cross-check: |P_rootfind - P_opt| / max(P, 1 W) = {rel:.2e}")

    if args.out:
        out = _ensure_out(args)
        report = {
            "scenario": scn.id,
            "mode": res.mode,
            "solver": res.solver,
            "rh_used": res.rh_used,
            "temperatures_C": {
                "T_cab": round(st.T_cab - KELVIN, 6),
                "T_rh": round(st.T_rh - KELVIN, 6),
                "T_si": round(st.T_si - KELVIN, 6),
                "T_so": round(st.T_so - KELVIN, 6),
            },
            "heat_flows_W": {k: round(v, 6) for k, v in res.flows.as_dict().items()},
            "mean_pmv": None if math.isnan(res.mean_psi) else round(res.mean_psi, 6),
            "ppd_pct": None if math.isnan(res.ppd) else round(res.ppd, 4),
            "P_tot_W": round(res.P_tot, 6),
        }
        _atomic_write(os.path.join(out, "solve_report.json"),
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
        _atomic_write(os.path.join(out, "heat_flows.csv"),
                      _csv_text(["flow", "value_W"],
                                [[k, _fmt(v)] for k, v in res.flows.as_dict().items()]))
        if scn.N_pass > 0 and res.rh_used:
            pax = place_passengers(scn.N_pass, placement_seed(scn.id, args.seed),
                                   app.layout)
            tmr = mixed_radiant_temperature(panel_view_weights(pax, app.layout),
                                            st.T_si, st.T_rh)
            rows = [[_fmt(p.x), _fmt(p.y), _fmt(t - KELVIN), _fmt(v)]
                    for p, t, v in zip(pax, tmr, res.per_passenger_pmv)]
            _atomic_write(os.path.join(out, "passenger_tmr.csv"),
                          _csv_text(["x_m", "y_m", "T_mr_C", "pmv"], rows))
        _write_manifest(out, args, "solve", args.scenarios or "inline", duration)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_window(arg: str) -> tuple[float, float]:
    """The PMV window ``'lo,hi'`` of ``--window``."""
    try:
        lo, hi = (float(v) for v in arg.split(","))
    except ValueError:
        raise ConfigError(f"bad PMV window {arg!r}: expected 'lo,hi'")
    return lo, hi


def _parse_windows(arg: str) -> list[float]:
    if not arg or not arg.strip():
        raise ConfigError("empty window list")
    try:
        widths = [float(v) for v in arg.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad window list {arg!r}")
    if not widths:
        raise ConfigError("empty window list")
    return widths


def cmd_sweep(args) -> int:
    app = load_config(args.config)
    sset = _load_set(args)
    out = _ensure_out(args)
    widths = _parse_windows(args.windows)
    names = ([n.strip() for n in args.concepts.split(",")] if args.concepts
             else list(app.concepts))
    unknown = [n for n in names if n not in app.concepts]
    if unknown:
        raise ConfigError(f"unknown concepts {unknown}; configured: {list(app.concepts)}")
    chosen = [app.concepts[n] for n in names]

    t0 = time.perf_counter()
    curves = compare_concepts(sset, {c.name: c.bus for c in chosen}, widths,
                              spec=app.comfort, seed=args.seed, jobs=args.jobs,
                              layouts={c.name: c.layout for c in chosen})
    if args.solver in ("opt", "both"):
        _cross_check_sample(sset, chosen, widths, app, args)
    duration = time.perf_counter() - t0

    combined = []
    for name in names:
        rows = [[_fmt(p.half_width), _fmt(p.annual_mean_P_tot), _fmt(p.annual_mean_ppd)]
                for p in curves[name]]
        _atomic_write(os.path.join(out, f"pareto_{_safe_name(name)}.csv"),
                      _csv_text(["half_width", "annual_mean_P_tot_W",
                                 "annual_mean_ppd_pct"], rows))
        combined += [[name] + r for r in rows]
    _atomic_write(os.path.join(out, "pareto_combined.csv"),
                  _csv_text(["concept", "half_width", "annual_mean_P_tot_W",
                             "annual_mean_ppd_pct"], combined))
    report = {name: [{"half_width": p.half_width,
                      "annual_mean_P_tot_W": round(p.annual_mean_P_tot, 6),
                      "annual_mean_ppd_pct": round(p.annual_mean_ppd, 6)}
                     for p in curves[name]] for name in names}
    _atomic_write(os.path.join(out, "sweep_report.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, args, "sweep", args.scenarios, duration)
    for name in names:
        print(f"{name}: " + "  ".join(
            f"w={p.half_width:.1f}: {p.annual_mean_P_tot:.0f} W / {p.annual_mean_ppd:.1f} %"
            for p in curves[name]))
    return EXIT_OK


def _cross_check_sample(sset, concepts, widths, app: AppConfig, args,
                        sample: int = 25) -> None:
    """Verify the optimization solver against root finding on a seeded sample."""
    sub = sset.subset(sample, seed=args.seed)
    spec = app.comfort.with_window(-widths[0], widths[0])
    worst = 0.0
    for c in concepts:
        a = solve_set(sub, c.bus, spec, c.layout, args.seed, args.jobs, "rootfind")
        b = solve_set(sub, c.bus, spec, c.layout, args.seed, args.jobs, "opt")
        worst = max([worst] + [abs(x.P_tot - y.P_tot) / max(x.P_tot, 1.0)
                               for x, y in zip(a, b)])
    print(f"solver cross-check on {len(sub)} scenarios: max relative deviation {worst:.2e}")
    if worst > 1e-4:
        raise SolverError(f"solver disagreement {worst:.2e} exceeds 1e-4")


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def cmd_sensitivity(args) -> int:
    app = load_config(args.config)
    sset = _load_set(args)
    out = _ensure_out(args)
    params = ([p.strip() for p in args.params.split(",")] if args.params
              else list(DEFAULT_SENSITIVITY_PARAMS))
    t0 = time.perf_counter()
    entries = oat_sensitivity(sset, app.bus, app.comfort, params,
                              delta=args.delta, layout=app.layout,
                              seed=args.seed, jobs=args.jobs)
    duration = time.perf_counter() - t0
    rows = [[e.parameter, e.direction, _fmt(e.rel_change_pct), _fmt(e.p5_pct),
             _fmt(e.p95_pct)] for e in entries]
    _atomic_write(os.path.join(out, "sensitivity.csv"),
                  _csv_text(["parameter", "direction", "rel_change_pct",
                             "p5_pct", "p95_pct"], rows))
    _write_manifest(out, args, "sensitivity", args.scenarios, duration)
    for e in entries:
        arrow = {1: "+1%", -1: "-1%", 0: "  0"}[e.direction]
        print(f"{e.parameter:16s} {arrow}: {e.rel_change_pct:+8.4f} %  "
              f"[{e.p5_pct:+.3f}, {e.p95_pct:+.3f}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# monthly
# ---------------------------------------------------------------------------

def cmd_monthly(args) -> int:
    app = load_config(args.config)
    sset = _load_set(args)
    out = _ensure_out(args)
    spec = app.comfort
    if args.window:
        spec = spec.with_window(*_parse_window(args.window))
    t0 = time.perf_counter()
    results = solve_set(sset, app.bus, spec, layout=app.layout, seed=args.seed,
                        jobs=args.jobs)
    duration = time.perf_counter() - t0
    rows = monthly_table(results, sset)
    table = []
    for r in rows:
        if r.n == 0:
            table.append([r.month, 0, "absent"] + [""] * 8)
        else:
            table.append([r.month, r.n, "present", _fmt(r.P_hvac), _fmt(r.P_rh),
                          _fmt(r.P_tot), _fmt(r.Q_heat), _fmt(r.Q_cool),
                          _fmt(r.frac_heating), _fmt(r.frac_cooling),
                          _fmt(r.frac_passive)])
    _atomic_write(os.path.join(out, "monthly.csv"),
                  _csv_text(["month", "n", "status", "P_hvac_W", "P_rh_W",
                             "P_tot_W", "Q_heat_W", "Q_cool_W", "frac_heating",
                             "frac_cooling", "frac_passive"], table))
    _write_manifest(out, args, "monthly", args.scenarios, duration)
    for r in rows:
        if r.n:
            print(f"month {r.month:2d} (n={r.n:4d}): P_tot={r.P_tot:7.0f} W  "
                  f"heat/cool/passive = {r.frac_heating:.2f}/{r.frac_cooling:.2f}/"
                  f"{r.frac_passive:.2f}")
        else:
            print(f"month {r.month:2d}: absent")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    app = load_config(args.config)
    out = _ensure_out(args)
    t0 = time.perf_counter()
    sset = synthesize_dataset(args.n, args.seed, app.climate)
    path = os.path.join(out, "scenarios.csv")
    save_scenarios_csv(sset, path)
    _write_manifest(out, args, "gen", f"synthetic(n={args.n}, seed={args.seed})",
                    time.perf_counter() - t0)
    hist = sset.month_histogram()
    print(f"wrote {len(sset)} scenarios to {path}")
    print("month histogram: " + " ".join(f"{m}:{hist[m]}" for m in range(1, 13)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabintherm",
        description="Steady-state energy and comfort analysis of bus HVAC systems")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="YAML config (default: $CABINTHERM_CONFIG or built-ins)")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed")
    # each further flag only on the commands that read it
    scenarios = argparse.ArgumentParser(add_help=False)
    scenarios.add_argument("--scenarios", default=None, help="scenario CSV path")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_int_at_least(1), default=os.cpu_count() or 1,
                      help="concurrent scenario solves")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--solver", choices=["opt", "rootfind", "both"],
                        default="rootfind")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common, scenarios, solver],
                       help="solve one scenario and print the heat-flow report")
    p.add_argument("--id", default=None, help="scenario id (with --scenarios)")
    p.add_argument("--t-inf-c", type=float, default=None, dest="t_inf_c")
    p.add_argument("--i-dni", type=float, default=0.0, dest="i_dni")
    p.add_argument("--i-dhi", type=float, default=0.0, dest="i_dhi")
    p.add_argument("--beta-deg", type=float, default=-5.0, dest="beta_deg")
    p.add_argument("--n-pass", type=int, default=0, dest="n_pass")
    p.add_argument("--zeta-door", type=float, default=0.1, dest="zeta_door")
    p.add_argument("--zeta-sh", type=float, default=None, dest="zeta_sh")
    p.add_argument("--month", type=int, default=None)
    comfort = p.add_mutually_exclusive_group()
    comfort.add_argument("--window", default=None, help="PMV window 'lo,hi'")
    comfort.add_argument("--psi-tgt", type=float, default=None, dest="psi_tgt",
                         help="PMV target: the window 'T,T'")
    p.add_argument("--rh", choices=["auto", "on", "off"], default="auto")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common, scenarios, jobs, solver],
                       help="Pareto sweep over PMV window half-widths per concept")
    p.add_argument("--windows", required=True,
                   help="comma-separated window half-widths, e.g. 0,0.5,1.0")
    p.add_argument("--concepts", default=None,
                   help="comma-separated concept names (default: all configured)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity", parents=[common, scenarios, jobs],
                       help="one-at-a-time parameter sensitivity study")
    p.add_argument("--params", default=None, help="comma-separated parameter names")
    p.add_argument("--delta", type=float, default=0.01)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("monthly", parents=[common, scenarios, jobs],
                       help="monthly heat and power summary")
    p.add_argument("--window", default=None, help="PMV window 'lo,hi'")
    p.set_defaults(func=cmd_monthly)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a synthetic scenario dataset")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, EvaluationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CabinThermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
