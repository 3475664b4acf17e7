"""Command-line front end: each operation as a reproducible batch command.

    contactkit contact-check --manifold torus3 --n 2
    contactkit flow --manifold sphere --T 10 --random-start --t-min 1
    contactkit cw toric-table --n 1 --kmax 6
    contactkit cw volume --manifold sphere --n 1
    contactkit preq --normalize-period 2pi

Results are JSON records (stdout, or ``--output`` file); trajectories
and tables are CSV, written next to the JSON file, so without
``--output`` no file is written.  Floats are printed as their shortest
repr, which round-trips exactly.  Every record carries the seed and a
timestamp; identical config and seed reproduce identical output up to
the timestamp line.

Flags override an optional ``--config`` file of ``key = value`` lines
(keys are the long flag names), which overrides built-in defaults.
``CONTACTKIT_THREADS`` sets the default integrator thread count.

Exit codes: 0 all stated criteria pass, 1 a numerical criterion or
integration fails, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import zoo
from .chernweil import (GroupAction, PositivityError, diagonal_torus_action,
                        even_positivity_check, moment_field, pullback_polynomial,
                        torus_shift_action, unitary_action)
from .flows import (IntegrationError, birkhoff_average, integrate_flow,
                    min_return_distance, orbit_coverage)
from .integrate import contact_volume
from .manifold import ContactDegeneracyError, ContactManifold, GeometryError
from .prequant import (euler_number, fiber_integration_check,
                       hopf_prequantization, lift,
                       prequantization_relation_check, random_base_function)


class UsageError(Exception):
    """Malformed request: wrong flag combination or incompatible inputs."""


# ---- JSON with round-trip floats -------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _emit(report: dict, output: Optional[str]) -> None:
    report = _jsonable(report)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _output_stem(path: str) -> str:
    """--output without a trailing .json, then without a trailing .csv."""
    return path.removesuffix(".json").removesuffix(".csv")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


# ---- config file ------------------------------------------------------


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list) -> None:
    """Fold config-file values in under explicit flags.

    Precedence is flags > file > defaults, so a file value is applied
    only when its flag is absent from the command line.
    """
    if not getattr(args, "config", None):
        return
    actions = {}
    for action in parser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                actions[opt[2:]] = action
    for key, raw in _read_config(args.config).items():
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise UsageError(f"unknown config key '{key}' for this command")
        flag = "--" + key
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        if action.const is True and not action.type:
            low = raw.lower()
            if low in _TRUE:
                value = True
            elif low in _FALSE:
                value = False
            else:
                raise UsageError(f"config key '{key}' expects a boolean, got '{raw}'")
        elif action.type is not None:
            try:
                value = action.type(raw)
            except (TypeError, ValueError):
                raise UsageError(f"config key '{key}': bad value '{raw}'")
        else:
            value = raw
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key '{key}': '{value}' not in {sorted(action.choices)}")
        setattr(args, action.dest, value)


# ---- manifold selection -----------------------------------------------


def _add_manifold_flags(parser: argparse.ArgumentParser, default: str = "sphere") -> None:
    parser.add_argument("--manifold", default=default,
                        help=f"catalog name (default {default}): "
                             + ", ".join(sorted(zoo.catalog())))
    parser.add_argument("--n", type=int, default=None,
                        help="sphere index (dimension 2n+1) or torus winding")
    parser.add_argument("--winding", type=int, default=None,
                        help="torus winding number (alias of --n on torus3)")
    parser.add_argument("--weights", default=None,
                        help="comma-separated positive weights for 'weighted'")
    parser.add_argument("--strength", type=float, default=None,
                        help="conformal bump strength for 'cotangent-bump'")
    parser.add_argument("--scale", type=float, default=None,
                        help="multiply the contact form by this factor")


def _build_manifold(args) -> ContactManifold:
    makers = zoo.catalog()
    name = args.manifold
    if name not in makers:
        raise UsageError(f"unknown manifold '{name}'; choose from "
                         + ", ".join(sorted(makers)))
    kwargs = {}
    if name == "sphere" and args.n is not None:
        kwargs["n"] = args.n
    if name == "torus3":
        winding = args.winding if args.winding is not None else args.n
        if winding is not None:
            kwargs["winding"] = winding
    if name == "weighted" and args.weights is not None:
        kwargs["weights"] = args.weights
    if name == "cotangent-bump" and args.strength is not None:
        kwargs["strength"] = args.strength
    try:
        m = makers[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters for '{name}': {exc}")
    if args.scale is not None and args.scale != 1.0:
        m = m.scaled(args.scale)
    return m


# ---- contact-check ----------------------------------------------------


def _cmd_contact_check(args) -> int:
    m = _build_manifold(args)
    rng = np.random.default_rng(args.seed)
    pts = m.random_points(args.samples, rng)
    defect = m.contact_defect(pts)
    report = {
        "command": "contact-check",
        "manifold": m.key(),
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": args.tol,
        "min_defect": float(np.min(defect)),
        "mean_defect": float(np.mean(defect)),
        "max_defect": float(np.max(defect)),
    }
    ok = np.all(np.isfinite(defect)) and report["min_defect"] > 0.0
    try:
        res = m.reeb_residuals(pts)
        report["max_alpha_residual"] = float(np.max(res["alpha"]))
        report["max_pairing_residual"] = float(np.max(res["pairing"]))
        report["max_tangency_residual"] = float(np.max(res["tangency"]))
        worst = max(report["max_alpha_residual"], report["max_pairing_residual"],
                    report["max_tangency_residual"])
        ok = ok and worst <= args.tol
    except ContactDegeneracyError as exc:
        report["reeb_error"] = str(exc)
        ok = False
    report["pass"] = bool(ok)
    _emit(report, args.output)
    return 0 if ok else 1


# ---- flow --------------------------------------------------------------

# birkhoff observables by name; each entry is (min ambient dim, fn)
_OBSERVABLES = {
    "x0": (1, lambda pts: pts[:, 0]),
    "z0-square": (2, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2),
    "re-z0zb1": (4, lambda pts: pts[:, 0] * pts[:, 2] + pts[:, 1] * pts[:, 3]),
}


def _flow_field(args, m: ContactManifold):
    if args.field == "reeb":
        return None
    if m.name != "weighted-sphere":
        raise UsageError("--field weighted-closed-form needs --manifold weighted")
    return lambda pts: zoo.weighted_reeb_closed_form(m, pts)


def _cmd_flow(args) -> int:
    m = _build_manifold(args)
    rng = np.random.default_rng(args.seed)
    if args.random_start:
        start = m.random_points(1, rng)[0]
    elif args.start is not None:
        start = np.array([float(x) for x in args.start.split(",")])
        if start.size != m.ambient_dim:
            raise UsageError(f"start needs {m.ambient_dim} coordinates, got {start.size}")
    else:
        raise UsageError("provide --start x0,x1,... or --random-start")
    if args.observable is not None:
        min_dim, observable = _OBSERVABLES[args.observable]
        if m.ambient_dim < min_dim:
            raise UsageError(f"observable '{args.observable}' needs ambient "
                             f"dimension >= {min_dim}")
    # the trajectory CSV goes next to the JSON file, and without --output nowhere
    stem = _output_stem(args.output) if args.output else None
    json_path = None if stem is None else stem + ".json"
    report = {
        "command": "flow",
        "manifold": m.key(),
        "seed": args.seed,
        "field": args.field,
        "start": [float(x) for x in start],
        "T": args.T,
        "tol": args.tol,
    }
    field = _flow_field(args, m)
    try:
        traj = integrate_flow(m, field, start, args.T,
                              tol=args.tol, max_step=args.max_step)
        if stem is not None:
            traj.to_csv(stem + ".csv")
            report["trajectory_csv"] = stem + ".csv"
        report.update(traj.stats())
        if args.t_min is not None and args.t_min < traj.total_time:
            t_ret, d_ret = min_return_distance(traj, args.t_min)
            report["return_time"] = float(t_ret)
            report["return_distance"] = float(d_ret)
        if args.coverage_resolution >= 2:
            report["coverage_resolution"] = args.coverage_resolution
            report["coverage"] = float(orbit_coverage(traj, args.coverage_resolution,
                                                      seed=args.seed))
    except (IntegrationError, GeometryError) as exc:
        report["error"] = str(exc)
        report["pass"] = False
        _emit(report, json_path)
        return 1
    if args.observable is not None:
        avg = birkhoff_average(traj, observable)
        report["observable"] = args.observable
        report["birkhoff_average"] = float(avg[-1])
    report["pass"] = True
    _emit(report, json_path)
    return 0


# ---- cw ----------------------------------------------------------------


def _binomial_coefficient(l: int) -> float:
    # the even-power circle average: 2 pi binom(2l, l) / 4^l
    return 2.0 * math.pi * math.comb(2 * l, l) / 4.0 ** l


def _action_for(args, m: ContactManifold) -> GroupAction:
    name = args.action
    if name == "auto":
        name = "shift" if "torus" in m.name else "diagonal"
    if name == "shift":
        if "torus" not in m.name:
            raise UsageError("the shift action lives on torus3")
        return torus_shift_action(m)
    if name == "diagonal":
        if "sphere" not in m.name:
            raise UsageError("the diagonal torus action lives on spheres")
        return diagonal_torus_action(m)
    if name == "unitary":
        if m.name != "sphere":
            raise UsageError("the unitary action lives on round spheres")
        return unitary_action(m)
    raise UsageError(f"unknown action '{name}'")


def _parse_element(action: GroupAction, spec: str, rng) -> np.ndarray:
    if spec == "random":
        return action.random_element(rng)
    if spec == "iI":
        if action.kind == "unitary":
            return 1j * np.eye(action.manifold.ambient_dim // 2)
        if action.name == "diagonal-torus":
            return np.ones(action.algebra_dim)
        raise UsageError("element 'iI' needs the diagonal or unitary action")
    try:
        vec = np.array([float(x) for x in spec.split(",")])
    except ValueError:
        raise UsageError(f"bad element spec '{spec}'")
    if action.kind != "torus" or vec.size != action.algebra_dim:
        raise UsageError(f"element '{spec}' does not fit the {action.name} action")
    return vec


def _cw_toric_table(args, report: dict) -> int:
    if args.manifold != "torus3":
        raise UsageError("toric-table needs --manifold torus3")
    m = _build_manifold(args)
    winding = m.params["winding"]
    action = torus_shift_action(m)
    nodes = max(33, 2 * winding * args.kmax + 9)
    a = np.array([args.A, args.B])
    rows = []
    ok = True
    for k in range(1, args.kmax + 1):
        res = pullback_polynomial(action, [a] * k, budget=nodes ** 3,
                                  seed=args.seed, threads=args.threads)
        row = {"k": k, "value": res.value, "std_error": res.std_error}
        if k % 2 == 0:
            l = k // 2
            coef = res.value / (args.A ** 2 + args.B ** 2) ** l
            expected = 4.0 * winding * math.pi ** 2 * _binomial_coefficient(l)
            row["coefficient"] = coef
            row["expected_coefficient"] = expected
            row["relative_error"] = abs(coef - expected) / abs(expected)
            row["ok"] = row["relative_error"] <= args.rtol
        else:
            row["parity_residual"] = abs(res.value)
            row["ok"] = row["parity_residual"] <= args.atol
        ok = ok and row["ok"]
        rows.append(row)
    report.update({"manifold": m.key(), "A": args.A, "B": args.B,
                   "nodes": nodes, "rtol": args.rtol, "atol": args.atol,
                   "rows": rows, "pass": bool(ok)})
    if args.output:
        _write_csv(report["table_csv"], ["k", "value", "coefficient",
                                         "parity_residual"],
                   [[r["k"], r["value"], r.get("coefficient", ""),
                     r.get("parity_residual", "")] for r in rows])
    return 0 if ok else 1


def _sphere_moment_oracle(n: int, scale: float, a, b) -> float:
    # contact volume pi^(n+1); simplex moments E[u_i u_j] = (1+delta)/((n+1)(n+2))
    total = float(np.sum(a) * np.sum(b) + np.dot(a, b))
    return math.pi ** (n + 1) / (4.0 * (n + 1) * (n + 2)) * total * scale ** (n + 3)


def _cw_sphere_table(args, report: dict) -> int:
    if args.manifold != "sphere":
        raise UsageError("sphere-table needs --manifold sphere")
    m = _build_manifold(args)
    n = m.params["n"]
    scale = m.params.get("form_scale", 1.0)
    action = diagonal_torus_action(m)
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    for i in range(args.rows):
        a = action.random_element(rng)
        b = action.random_element(rng)
        res = pullback_polynomial(action, [a, b], budget=args.budget,
                                  seed=args.seed + i, threads=args.threads)
        oracle = _sphere_moment_oracle(n, scale, a, b)
        gap = abs(res.value - oracle)
        bound = 3.0 * res.std_error + 1e-12
        row = {"index": i, "a": [float(x) for x in a], "b": [float(x) for x in b],
               "value": res.value, "std_error": res.std_error,
               "oracle": oracle, "abs_error": gap, "three_sigma": bound,
               "ok": gap <= bound}
        ok = ok and row["ok"]
        rows.append(row)
    report.update({"manifold": m.key(), "budget": args.budget,
                   "rows": rows, "pass": bool(ok)})
    if args.output:
        _write_csv(report["table_csv"],
                   ["index", "value", "std_error", "oracle", "abs_error"],
                   [[r["index"], r["value"], r["std_error"], r["oracle"],
                     r["abs_error"]] for r in rows])
    return 0 if ok else 1


def _cw_pullback(args, report: dict) -> int:
    m = _build_manifold(args)
    action = _action_for(args, m)
    rng = np.random.default_rng(args.seed)
    elements = [_parse_element(action, args.A_element, rng)
                for _ in range(args.k)]
    res = pullback_polynomial(action, elements, budget=args.budget,
                              seed=args.seed, threads=args.threads)
    report.update({"manifold": m.key(), "action": action.name, "k": args.k,
                   "budget": args.budget, "value": res.value,
                   "std_error": res.std_error, "method": res.method,
                   "samples": res.samples, "pass": True})
    return 0


def _cw_positivity(args, report: dict) -> int:
    m = _build_manifold(args)
    action = _action_for(args, m)
    rng = np.random.default_rng(args.seed)
    element = _parse_element(action, args.A_element, rng)
    report.update({"manifold": m.key(), "action": action.name, "l": args.l,
                   "budget": args.budget})
    try:
        res = even_positivity_check(action, element, args.l, budget=args.budget,
                                    seed=args.seed, threads=args.threads)
    except ValueError as exc:
        raise UsageError(str(exc))
    except PositivityError as exc:
        report.update({"certified": False, "error": str(exc), "pass": False})
        return 1
    report.update({"certified": True, "value": res.value,
                   "std_error": res.std_error, "samples": res.samples,
                   "pass": True})
    return 0


def _cw_volume(args, report: dict) -> int:
    m = _build_manifold(args)
    res = contact_volume(m, budget=args.budget, seed=args.seed,
                         threads=args.threads)
    report.update({"manifold": m.key(), "budget": args.budget,
                   "value": res.value, "std_error": res.std_error,
                   "method": res.method, "samples": res.samples, "pass": True})
    return 0


def _cmd_cw(args) -> int:
    report = {"command": f"cw {args.table}", "seed": args.seed}
    if args.output:
        stem = _output_stem(args.output)
        report["table_csv"] = stem + ".csv"
        args.output = stem + ".json"
    handler = {"toric-table": _cw_toric_table, "sphere-table": _cw_sphere_table,
               "pullback": _cw_pullback, "positivity": _cw_positivity,
               "volume": _cw_volume}[args.table]
    code = handler(args, report)
    if "pass" in report:
        _emit(report, args.output)
    return code


# ---- preq --------------------------------------------------------------


def _cmd_preq(args) -> int:
    scale = 2.0 if args.normalize_period == "2pi" else args.scale
    preq = hopf_prequantization(scale=scale, samples=args.samples, seed=args.seed)
    report = {
        "command": "preq",
        "seed": args.seed,
        "scale": scale,
        "fiber_period": preq.fiber_period,
        "omega_total": preq.omega_total,
        "orientation_sign": preq.orientation_sign,
        "curvature_dispersion": preq.curvature_dispersion,
    }
    constant, dispersion = fiber_integration_check(preq, trials=args.trials,
                                                   budget=args.budget,
                                                   seed=args.seed)
    sigma_c = abs(constant) * dispersion / math.sqrt(args.trials) + 1e-12
    c_gap = abs(constant - preq.fiber_period)
    report["fiber_constant"] = constant
    report["fiber_constant_expected"] = preq.fiber_period
    report["fiber_dispersion"] = dispersion
    report["fiber_constant_ok"] = c_gap <= 3.0 * sigma_c
    report["dispersion_ok"] = dispersion <= args.dispersion_tol

    euler = euler_number(preq)
    report["euler"] = euler
    euler_ok = euler["defect"] <= 1e-3 if euler["normalized"] else True

    m = preq.total
    height = moment_field(diagonal_torus_action(m), [1.0, -1.0], name="height")
    poly_a = lift(preq, random_base_function(args.seed + 21), name="poly-a")
    poly_b = lift(preq, random_base_function(args.seed + 22), name="poly-b")
    relations = []
    relations_ok = True
    for label, hams in (("height,poly-a", [height, poly_a]),
                        ("height,poly-a,poly-b", [height, poly_a, poly_b])):
        check = prequantization_relation_check(preq, hams, budget=args.budget,
                                               seed=args.seed)
        row = {"hamiltonians": label, "k": len(hams),
               "residual": check["residual"],
               "three_sigma": check["three_sigma"],
               "ok": check["residual"] <= check["three_sigma"]}
        relations_ok = relations_ok and row["ok"]
        relations.append(row)
    report["relations"] = relations

    ok = (report["dispersion_ok"] and report["fiber_constant_ok"]
          and euler_ok and relations_ok)
    report["pass"] = bool(ok)
    _emit(report, args.output)
    return 0 if ok else 1


# ---- parser ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in the output")
    parser.add_argument("--threads", type=int, default=None,
                        help="integrator threads (default CONTACTKIT_THREADS or 1)")
    parser.add_argument("--output", default=None, help="output path (JSON; stem for CSV)")
    parser.add_argument("--config", default=None,
                        help="key = value file supplying defaults for these flags")


def _build_parser():
    """The root parser plus a command -> subparser map for config lookup."""
    parser = argparse.ArgumentParser(
        prog="contactkit", allow_abbrev=False,
        description="Numerical toolkit for contact forms, Reeb flows and "
                    "invariant polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = registry["contact-check"] = sub.add_parser(
        "contact-check", allow_abbrev=False,
                       help="sample the contact condition and Reeb residuals")
    _add_manifold_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="max allowed Reeb residual")
    _add_common(p)
    p.set_defaults(handler=_cmd_contact_check)

    p = registry["flow"] = sub.add_parser(
        "flow", allow_abbrev=False,
        help="integrate a Reeb trajectory with diagnostics")
    _add_manifold_flags(p)
    p.add_argument("--T", type=float, default=10.0, help="integration time")
    p.add_argument("--start", default=None, help="comma-separated start point")
    p.add_argument("--random-start", action="store_true")
    p.add_argument("--field", choices=["reeb", "weighted-closed-form"],
                   default="reeb")
    p.add_argument("--tol", type=float, default=1e-9, help="step error tolerance")
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--t-min", type=float, default=None,
                   help="report the closest return after this time")
    p.add_argument("--coverage-resolution", type=int, default=0,
                   help="grid cells per axis for coverage (0 = off)")
    p.add_argument("--observable", choices=sorted(_OBSERVABLES), default=None,
                   help="report the Birkhoff average of this observable")
    _add_common(p)
    p.set_defaults(handler=_cmd_flow)

    p = registry["cw"] = sub.add_parser(
        "cw", allow_abbrev=False,
        help="invariant-polynomial tables and checks")
    p.add_argument("table", choices=["toric-table", "sphere-table", "pullback",
                                     "positivity", "volume"])
    _add_manifold_flags(p, default="torus3")
    p.add_argument("--action", choices=["auto", "shift", "diagonal", "unitary"],
                   default="auto")
    p.add_argument("--kmax", type=int, default=6, help="toric-table: largest power")
    p.add_argument("--k", type=int, default=2, help="pullback: number of arguments")
    p.add_argument("--l", type=int, default=1, help="positivity: half the power")
    p.add_argument("--A", type=float, default=1.0, help="toric-table: first component")
    p.add_argument("--B", type=float, default=0.0, help="toric-table: second component")
    p.add_argument("--element", dest="A_element", default="random",
                   help="algebra element: 'random', 'iI', or comma floats")
    p.add_argument("--rows", type=int, default=10, help="sphere-table: row count")
    p.add_argument("--budget", type=int, default=1 << 17)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(handler=_cmd_cw)

    p = registry["preq"] = sub.add_parser(
        "preq", allow_abbrev=False,
        help="prequantization checks on the 3-sphere bundle")
    p.add_argument("--scale", type=float, default=1.0,
                   help="contact form scale (fiber period = pi * scale)")
    p.add_argument("--normalize-period", choices=["2pi"], default=None,
                   help="rescale so the fiber period is 2 pi")
    p.add_argument("--samples", type=int, default=256,
                   help="tangent samples for the curvature fit")
    p.add_argument("--trials", type=int, default=20,
                   help="random functions in the fiber-constant fit")
    p.add_argument("--budget", type=int, default=1 << 15)
    p.add_argument("--dispersion-tol", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(handler=_cmd_preq)

    return parser, registry


def _attach_dash_values(argv: list, registry: dict) -> list:
    """Join "--flag -1,0" into "--flag=-1,0" for flags that take a value.

    argparse reads a token that starts with '-' and is not a plain
    number, such as a comma list with a negative first entry, as a flag.
    """
    takes_value = {opt for p in registry.values() for action in p._actions
                   if action.nargs is None for opt in action.option_strings}
    out = []
    for tok in argv:
        if out and out[-1] in takes_value and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser, registry = _build_parser()
    argv = _attach_dash_values(list(sys.argv[1:] if argv is None else argv), registry)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(registry[args.command], args, argv)
        return args.handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, IntegrationError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
