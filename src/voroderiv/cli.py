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


def _parse_complex(v):
    if isinstance(v, dict):
        return complex(float(v["re"]), float(v.get("im", 0.0)))
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"cannot parse complex number from {v!r}")


def load_problem(path):
    """Pole-set problem JSON -> (poles, orders, coeffs, polynomial part)."""
    doc = json.loads(Path(path).read_text())
    poles, orders, coeffs = [], [], []
    for p in doc["poles"]:
        poles.append(_parse_complex(p))
        orders.append(int(p.get("order", 1)))
        cs = p.get("coeffs")
        if cs is None:
            cs = [{"re": 1.0, "im": 0.0}] * orders[-1]
        coeffs.append([_parse_complex(c) for c in cs])
    poly_part = [_parse_complex(c) for c in doc.get("polynomial_part", [0.0])]
    return poles, orders, coeffs, poly_part


def load_lemniscate_problem(path):
    doc = json.loads(Path(path).read_text())
    spec = doc["lemniscate"]
    polys = [[_parse_complex(c) for c in p] for p in spec["polynomials"]]
    mult = spec.get("multipliers")
    return lemniscate.LemniscateProblem(
        polynomials=tuple(polys),
        multipliers=tuple(int(m) for m in mult) if mult else None,
    )


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
        print("odecheck requires a common pole order", file=sys.stderr)
        return 1
    # the power-sum identity holds for sum_i w_i (z - z_i)^-s alone
    if any(poly_part) or any(any(cs[:-1]) for cs in coeffs):
        print("odecheck takes no polynomial part and only top pole coefficients",
              file=sys.stderr)
        return 1
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
    if args.grid < 16:
        print("grid resolution must be >= 16", file=sys.stderr)
        return 1
    # these commands write the output of one derivative order
    if args.command in ("derive", "roots", "render") and "," in args.n:
        print(f"--n takes one order for {args.command}, not a list", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](args, out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except VoroderivError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
