"""Batch command-line front end.

Every subcommand is pure file-in/file-out: a JSON problem description
plus flags in, CSV/JSON/SVG artifacts out.  Exit codes: 0 success,
1 configuration or input errors (bad arguments, missing or malformed
files), 2 numeric failures (coincident poles, coefficient collapse,
non-convergence).
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import asympt, lemniscate, measure, odecheck, rational, svg
from ._poly import DOUBLE, EXTENDED
from .errors import VoroderivError


# what _check asks of a JSON value, by the Python types json.loads gives it
_NUMBER = (int, float)
_KINDS = {dict: "an object", list: "a list", int: "an integer", _NUMBER: "a finite number"}


def _check(v, kind, field):
    """v if it is of kind (a bool is no number), else ValueError naming field."""
    ok = isinstance(v, kind) and not isinstance(v, bool)
    if ok and (kind != _NUMBER or abs(v) <= sys.float_info.max):  # not NaN, inf or a huge int
        return v
    raise ValueError(f"{field} must be {_KINDS[kind]}, not {v!r}")


def _items(v, field, parse):
    """parse(item, its field) for each item of the list v."""
    return [parse(x, f"{field}[{k}]") for k, x in enumerate(_check(v, list, field))]


def _integer(v, field):
    """An order or multiplier: an int, or a float with an integer value."""
    return int(v) if isinstance(v, float) and v.is_integer() else _check(v, int, field)


def _parse_complex(v, field):
    """A complex number from {"re": x, "im": y}, [x, y] or a number x."""
    parts = {".re": v.get("re"), ".im": v.get("im", 0.0)} if isinstance(v, dict) else (
        dict(zip(("[0]", "[1]"), v)) if isinstance(v, list) and len(v) == 2 else {"": v})
    return complex(*(_check(x, _NUMBER, field + s) for s, x in parts.items()))


_complexes = functools.partial(_items, parse=_parse_complex)


def load_problem(path):
    """Pole-set JSON -> (poles, orders, coeffs, polynomial part); ValueError names a bad field."""
    doc = _check(json.loads(Path(path).read_text()), dict, "problem")
    poles, orders, coeffs = [], [], []
    for i, p in enumerate(_check(doc.get("poles"), list, "poles")):
        poles.append(_parse_complex(_check(p, dict, f"poles[{i}]"), f"poles[{i}]"))
        # a pole without coeffs is simple, with coefficient 1
        coeffs.append(_complexes(p["coeffs"], f"poles[{i}].coeffs") if "coeffs" in p else [1.0])
        orders.append(_integer(p.get("order", len(coeffs[-1])), f"poles[{i}].order"))
        if orders[-1] != len(coeffs[-1]):
            given = f"coeffs of length {len(coeffs[-1])}" if "coeffs" in p else "no coeffs"
            raise ValueError(f"poles[{i}].order must be {len(coeffs[-1])} with {given}, "
                             f"not {p['order']!r}")
    return poles, orders, coeffs, _complexes(doc.get("polynomial_part", [0.0]), "polynomial_part")


def load_lemniscate_problem(path):
    """Lemniscate JSON -> LemniscateProblem; ValueError names a bad field."""
    doc = _check(json.loads(Path(path).read_text()), dict, "problem")
    spec = _check(doc.get("lemniscate"), dict, "lemniscate")
    polys = _items(spec.get("polynomials"), "lemniscate.polynomials", _complexes)
    mult = spec.get("multipliers")
    return lemniscate.LemniscateProblem(tuple(polys), mult if mult is None else tuple(
        _items(mult, "lemniscate.multipliers", _integer)))


def _form(args):
    return rational.polar_form(*load_problem(args.problem), precision=args.precision)


# rows per write of _write_csv; one string for a whole file would raise
# the peak memory
CSV_BLOCK = 1024


def _write_csv(path, header, columns):
    """Write header and the rows of columns, lists of Python scalars, in
    csv.writer's bytes: str() of fields that need no quoting, \\r\\n ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in range(0, len(columns[0]) if columns else 0, CSV_BLOCK):
            cells = zip(*[map(str, col[s:s + CSV_BLOCK]) for col in columns])
            fh.write("\r\n".join(map(",".join, cells)) + "\r\n")


def _n_list(args):
    return [int(s) for s in str(args.n).split(",")]


def _window(args):
    """(centre, half-side) of --window; ValueError (exit 1) unless the
    centre is finite and the half-side positive and finite."""
    try:
        cx, cy, h = (float(s) for s in args.window.split(","))
    except ValueError:
        raise ValueError(f"--window takes cx,cy,half_side, not {args.window!r}") from None
    if not (math.isfinite(cx) and math.isfinite(cy) and 0.0 < h < math.inf):
        raise ValueError(f"--window {args.window!r} needs a finite centre and a "
                         "positive, finite half-side")
    return complex(cx, cy), h


def cmd_derive(args, out):
    form = _form(args)
    n = int(args.n)
    r_n = rational.numerator(rational.derivative_state(form, n)).r_n.astype(complex)
    _write_csv(out / f"rn_{n}.csv", ["k", "re", "im"],
               [list(range(len(r_n))), r_n.real.tolist(), r_n.imag.tolist()])
    return 0


def cmd_roots(args, out):
    form = _form(args)
    n = int(args.n)
    rs = rational.zeros(form, n)
    roots = rs.roots.astype(complex)
    _write_csv(out / f"roots_{n}.csv", ["re", "im", "residual", "converged"],
               [roots.real.tolist(), roots.imag.tolist(), rs.residuals.tolist(),
                rs.converged.astype(int).tolist()])
    return 0


def cmd_voronoi(args, out):
    (out / "voronoi.json").write_text(_form(args).diagram.to_json() + "\n")
    return 0


def cmd_measure(args, out):
    form = _form(args)
    diagram = form.diagram
    masses = [measure.edge_mass(e, diagram.d) for e in diagram.edges]
    rows = [(e.pair[0], e.pair[1], float(e.t_lo), float(e.t_hi), mass)
            for e, mass in zip(diagram.edges, masses)]
    _write_csv(out / "measure.csv", ["i", "j", "t_lo", "t_hi", "mass"], list(zip(*rows)))
    k = args.grid
    cdf_rows = [(e.pair[0], e.pair[1], q / k,
                 measure.edge_quantile(e, q / k * mass, diagram.d) if 0 < q < k
                 else float(e.t_lo if q == 0 else e.t_hi), q / k * mass)
                for e, mass in zip(diagram.edges, masses) for q in range(k + 1)]
    _write_csv(out / "measure_cdf.csv", ["i", "j", "u", "t", "cdf"], list(zip(*cdf_rows)))
    return 0


def cmd_compare(args, out):
    form = _form(args)
    diagram = form.diagram
    # by edge index; index -1, an atom off the skeleton, reads the last, ""
    labels = [f"{i}-{j}" for i, j in (e.pair for e in diagram.edges)] + [""]
    reports = []
    for n in _n_list(args):
        rep = asympt.project_and_bin(asympt.empirical(rational.zeros(form, n), n), diagram)
        reports.append(rep.as_dict())
        z, edge, t, dist = rep.assignments
        _write_csv(out / f"atoms_{n}.csv", ["re", "im", "edge", "t", "distance"],
                   [z.real.tolist(), z.imag.tolist(), [labels[k] for k in edge.tolist()],
                    t.tolist(), dist.tolist()])
    (out / "compare.json").write_text(
        json.dumps(reports, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_potential(args, out):
    window = _window(args)
    form = _form(args)
    diagram = form.diagram
    n_list = _n_list(args)
    l1 = [asympt.potential_l1(rational.zeros(form, n).converged_roots(), diagram,
                              window, grid=args.grid, seed=args.seed)
          for n in n_list]
    _write_csv(out / "potential_l1.csv", ["n", "l1_discrepancy"], [n_list, l1])
    return 0


def cmd_odecheck(args, out):
    poles, orders, coeffs, poly_part = load_problem(args.problem)
    s = orders[0]
    if any(r != s for r in orders):
        raise ValueError("odecheck requires a common pole order")
    # the power-sum identity holds for sum_i w_i (z - z_i)^-s alone
    if any(poly_part) or any(any(cs[:-1]) for cs in coeffs):
        raise ValueError("odecheck takes no polynomial part and only top pole coefficients")
    weights = [cs[-1] for cs in coeffs]
    f = odecheck.PowerSumFunction(s=s, poles=tuple(poles), weights=tuple(weights))
    rng = np.random.default_rng(args.seed)
    n_list = _n_list(args)
    rows = []
    for n in n_list:
        for _ in range(10):
            z = complex(rng.normal(), rng.normal()) * 2.0
            if min(abs(z - p) for p in poles) >= 1e-3:
                rows.append((n, z.real, z.imag, abs(odecheck.powersum_residual(f, n, z))))
    _write_csv(out / "odecheck.csv", ["n", "z_re", "z_im", "residual"], list(zip(*rows)))
    # points within 1e-3 of a pole are dropped; say how many
    summary = {"sampled": 10 * len(n_list), "dropped": 10 * len(n_list) - len(rows)}
    (out / "odecheck_summary.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_lemniscate(args, out):
    problem = load_lemniscate_problem(args.problem)
    center, half = _window(args)
    report = lemniscate.compactness_and_compare(
        problem, _n_list(args), (center, half), grid=args.grid, seed=args.seed)
    doc = {
        "n_list": list(report.n_list),
        "max_root_modulus": list(report.max_root_modulus),
        "l1_discrepancy": list(report.l1_discrepancy),
        "dominance_radius": None if not report.compact else report.dominance_radius,
        "compact": report.compact,
    }
    (out / "lemniscate.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")
    n_last = report.n_list[-1]
    svg.render_svg(out / f"lemniscate_{n_last}.svg", None,
                   roots=report.roots[-1], window=(center, half))
    rows = [(n, z.real, z.imag) for n, roots in zip(report.n_list, report.roots)
            for z in roots]
    _write_csv(out / "lemniscate_roots.csv", ["n", "re", "im"], list(zip(*rows)))
    return 0


def cmd_render(args, out):
    center, half = _window(args)
    form = _form(args)
    diagram = form.diagram
    n = int(args.n)
    rs = rational.zeros(form, n)
    svg.render_svg(out / f"render_{n}.svg", diagram,
                   roots=[complex(z) for z in rs.roots],
                   window=(center, half))
    return 0


COMMANDS = {
    "derive": cmd_derive,
    "roots": cmd_roots,
    "voronoi": cmd_voronoi,
    "measure": cmd_measure,
    "compare": cmd_compare,
    "potential": cmd_potential,
    "odecheck": cmd_odecheck,
    "lemniscate": cmd_lemniscate,
    "render": cmd_render,
}


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="voroderiv",
        description="derivative zero asymptotics on Voronoi diagrams",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--problem", required=True, help="problem JSON path")
    ap.add_argument("--n", default="1", help="derivative order or comma list")
    ap.add_argument("--window", default="0,0,3", help="cx,cy,half_side")
    ap.add_argument("--grid", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--precision", choices=[DOUBLE, EXTENDED], default=DOUBLE)
    ap.add_argument("--out", default=".", help="output directory")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    out = Path(args.out)
    try:
        if args.grid < 16:
            raise ValueError("grid resolution must be >= 16")
        # these commands write the output of one derivative order
        if args.command in ("derive", "roots", "render") and "," in args.n:
            raise ValueError(f"--n takes one order for {args.command}, not a list")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(f"cannot create output directory: {exc}") from None
        return COMMANDS[args.command](args, out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except VoroderivError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
