"""Command line entry points, artifact formats, and exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from voroderiv import asympt, cli, rational, voronoi

TWO_POLE = {
    "poles": [
        {"re": 0.0, "im": 1.0, "order": 1, "coeffs": [{"re": 0.0,
                                                       "im": -0.5}]},
        {"re": 0.0, "im": -1.0, "order": 1, "coeffs": [{"re": 0.0,
                                                        "im": 0.5}]},
    ]
}

LEMNISCATE = {
    "lemniscate": {
        "polynomials": [[-1.0, 1.0], [1.0, 1.0],
                        [{"re": 0.0, "im": -1.0}, 1.0],
                        [{"re": 0.0, "im": 1.0}, 1.0]],
        "multipliers": [12, 8, 7, 21],
    }
}


def run_cli(*args):
    """cli.main(args) in this process, as a finished subprocess would report it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture()
def problem(tmp_path):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(TWO_POLE))
    return p


def test_derive_writes_numerator_csv(problem, tmp_path):
    r = run_cli("derive", "--problem", str(problem), "--n", "6",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "rn_6.csv")))
    assert len(rows) == 7  # degree 6 numerator
    assert {"k", "re", "im"} <= set(rows[0])


def test_derive_overflow_exits_2(tmp_path):
    # three unit-circle poles: 1541 of the 2003 coefficients of R_1000
    # are NaN in double precision; none may reach rn_1000.csv
    p = tmp_path / "d3.json"
    p.write_text(json.dumps({"poles": [
        {"re": z.real, "im": z.imag, "order": 1,
         "coeffs": [{"re": a.real, "im": a.imag}]}
        for z, a in zip(np.exp(2j * np.pi * np.arange(3) / 3),
                        (1.0, 2.0, 1.0 + 1.0j))]}))
    r = run_cli("derive", "--problem", str(p), "--n", "1000",
                "--out", str(tmp_path))
    assert r.returncode == 2
    assert "order n=1000 overflowed" in r.stderr
    assert not (tmp_path / "rn_1000.csv").exists()


def test_roots_csv_has_residuals(problem, tmp_path):
    r = run_cli("roots", "--problem", str(problem), "--n", "6",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "roots_6.csv")))
    assert len(rows) == 6
    for row in rows:
        assert float(row["residual"]) < 1e-10
        assert row["converged"] == "1"


def test_roots_extended_matches_two_pole_oracle(tmp_path):
    # the numerator's expansion and scaling must run at extended
    # precision too, not only the root iteration
    a1, a2 = 1.48 - 1.83j, -0.89j
    z1, z2 = 0.78 - 2.12j, 0.43 - 1.91j
    p = tmp_path / "twopole.json"
    p.write_text(json.dumps({"poles": [
        {"re": z.real, "im": z.imag, "order": 1,
         "coeffs": [{"re": a.real, "im": a.imag}]}
        for z, a in ((z1, a1), (z2, a2))]}))
    r = run_cli("roots", "--problem", str(p), "--n", "11",
                "--precision", "extended", "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "roots_11.csv")))
    found = np.array([complex(float(row["re"]), float(row["im"]))
                      for row in rows])
    oracle = np.asarray(asympt.twopole_zeros(a1, a2, z1, z2, 12))
    assert len(found) == len(oracle) == 12
    cost = np.abs(found[:, None] - oracle[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert cost[ri, ci].max() < 1e-8


def test_polynomial_part_runs_derive_and_roots(tmp_path):
    # Q = z + 1/(1+z^2): Q''' has numerator z^3 - z, zeros 0 and +-1
    p = tmp_path / "pp.json"
    p.write_text(json.dumps(dict(TWO_POLE, polynomial_part=[0.0, 1.0])))
    for cmd in ("derive", "roots"):
        r = run_cli(cmd, "--problem", str(p), "--n", "3", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
    rn = [complex(float(row["re"]), float(row["im"]))
          for row in csv.DictReader(open(tmp_path / "rn_3.csv"))]
    assert np.allclose(rn, [0.0, -1.0, 0.0, 1.0], atol=1e-12)
    roots = np.sort_complex([complex(float(row["re"]), float(row["im"]))
                             for row in csv.DictReader(open(tmp_path / "roots_3.csv"))])
    assert np.abs(roots - np.array([-1.0, 0.0, 1.0])).max() < 1e-12


def test_voronoi_json(problem, tmp_path):
    r = run_cli("voronoi", "--problem", str(problem), "--out", str(tmp_path))
    assert r.returncode == 0
    data = json.loads((tmp_path / "voronoi.json").read_text())
    assert len(data["sites"]) == 2
    assert len(data["edges"]) == 1


def test_measure_csv_total_mass(problem, tmp_path):
    r = run_cli("measure", "--problem", str(problem), "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "measure.csv")))
    assert sum(float(row["mass"]) for row in rows) == pytest.approx(1.0)
    assert (tmp_path / "measure_cdf.csv").exists()


def test_compare_report(problem, tmp_path):
    r = run_cli("compare", "--problem", str(problem), "--n", "6,12",
                "--out", str(tmp_path))
    assert r.returncode == 0
    reports = json.loads((tmp_path / "compare.json").read_text())
    assert [rep["n"] for rep in reports] == [6, 12]
    ks = [rep["edges"][0]["ks"] for rep in reports]
    assert ks[1] < ks[0]
    rows = list(csv.DictReader(open(tmp_path / "atoms_6.csv")))
    assert len(rows) == 6
    for row in rows:  # plain float literals, not numpy reprs
        float(row["t"]), float(row["distance"])


def csv_module_bytes(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path.read_bytes()


def test_csv_writer_bytes_match_the_csv_module(tmp_path):
    # no rows, one row, and more rows than one block, over the cells the
    # commands write: signed zero, infinities, nan, the least subnormal,
    # exponent and short reprs, ints, empty edges and i-j labels
    header = ["re", "im", "edge", "n"]
    cells = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, 2.5, -1.25e-300]
    for count in (0, 1, cli.CSV_BLOCK + 3):
        columns = [[cells[k % len(cells)] for k in range(count)],
                   [cells[(k + 4) % len(cells)] for k in range(count)],
                   ["" if k % 3 else f"{k % 5}-{k % 7}" for k in range(count)],
                   list(range(count))]
        cli._write_csv(tmp_path / "atoms.csv", header, columns)
        assert (tmp_path / "atoms.csv").read_bytes() == csv_module_bytes(
            tmp_path / "reference.csv", header, zip(*columns))


def test_compare_atoms_match_the_csv_module(problem, tmp_path):
    # atoms_8.csv holds project_and_bin's assignments as csv.writer writes
    # them from Python floats; a numpy scalar would show as np.float64(...)
    assert cli.main(["compare", "--problem", str(problem), "--n", "8",
                     "--out", str(tmp_path)]) == 0
    form = rational.polar_form(*cli.load_problem(problem))
    rep = asympt.project_and_bin(asympt.empirical(rational.zeros(form, 8), 8),
                                 voronoi.build([complex(z) for z in form.poles]))
    pairs = [e.pair for e in rep.edges]
    rows = [(z.real, z.imag, "" if k < 0 else f"{pairs[k][0]}-{pairs[k][1]}", t, dist)
            for z, k, t, dist in zip(*(column.tolist() for column in rep.assignments))]
    written = (tmp_path / "atoms_8.csv").read_bytes()
    assert written == csv_module_bytes(
        tmp_path / "reference.csv", ["re", "im", "edge", "t", "distance"], rows)
    assert b"np." not in written and len(rows) == 8


def test_potential_csv(problem, tmp_path):
    r = run_cli("potential", "--problem", str(problem), "--n", "6",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "potential_l1.csv")))
    assert float(rows[0]["l1_discrepancy"]) < 1.0


def test_odecheck_residuals_small(problem, tmp_path):
    r = run_cli("odecheck", "--problem", str(problem), "--n", "6",
                "--out", str(tmp_path))
    assert r.returncode == 0
    rows = list(csv.DictReader(open(tmp_path / "odecheck.csv")))
    assert rows
    assert max(float(row["residual"]) for row in rows) < 1e-10


def test_odecheck_at_high_order(problem, tmp_path):
    # Q^(1000) overflows a double; the relative residuals stay finite
    code = cli.main(["odecheck", "--problem", str(problem), "--n", "1000",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "odecheck.csv")))
    assert rows
    assert all(math.isfinite(float(row["residual"])) for row in rows)
    assert max(float(row["residual"]) for row in rows) < 1e-12


@pytest.mark.parametrize("extra", [dict(polynomial_part=[0.0, 1.0]),
                                   dict(poles=[dict(TWO_POLE["poles"][0],
                                                    order=2, coeffs=[1.0, [0.0, -0.5]]),
                                               dict(TWO_POLE["poles"][1],
                                                    order=2, coeffs=[0.0, [0.0, 0.5]])])])
def test_odecheck_rejects_what_the_identity_leaves_out(tmp_path, capsys, extra):
    # Q = z + 1/(1+z^2), and double poles with a nonzero lower
    # coefficient: the power-sum identity would check another function
    p = tmp_path / "q.json"
    p.write_text(json.dumps(dict(TWO_POLE, **extra)))
    code = cli.main(["odecheck", "--problem", str(p), "--n", "3",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "odecheck takes no polynomial part" in capsys.readouterr().err
    assert not (tmp_path / "odecheck.csv").exists()


def test_odecheck_reports_dropped_points(problem, tmp_path, monkeypatch):
    real_rng = np.random.default_rng

    class FirstOnPole:
        """Draws the pole at i first, then the seeded generator's normals."""

        def __init__(self, seed):
            self.rng = real_rng(seed)
            self.queued = [0.0, 0.5]  # z = 2 (0 + 0.5i) = i

        def normal(self):
            return self.queued.pop(0) if self.queued else self.rng.normal()

    monkeypatch.setattr(np.random, "default_rng", FirstOnPole)
    code = cli.main(["odecheck", "--problem", str(problem), "--n", "6",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "odecheck.csv")))
    assert len(rows) == 9
    summary = json.loads((tmp_path / "odecheck_summary.json").read_text())
    assert summary == {"sampled": 10, "dropped": 1}


def test_lemniscate_runs_past_the_expansion_overflow(tmp_path):
    # criterion 12's problem: R_600 has non-finite coefficients, but the
    # zeros never expand it
    p = tmp_path / "c12.json"
    p.write_text(json.dumps({"lemniscate": {
        "polynomials": [[0.0, 0.0, 1.0], [-3.0, 1.0]], "multipliers": [1, 1]}}))
    r = run_cli("lemniscate", "--problem", str(p), "--n", "600",
                "--window", "0,0,6", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    radius = json.loads((tmp_path / "lemniscate.json").read_text())["dominance_radius"]
    rows = list(csv.DictReader(open(tmp_path / "lemniscate_roots.csv")))
    assert len(rows) == 1200
    assert all(abs(complex(float(row["re"]), float(row["im"]))) <= radius
               for row in rows)


def test_render_svg_artifact(problem, tmp_path):
    r = run_cli("render", "--problem", str(problem), "--n", "6",
                "--out", str(tmp_path))
    assert r.returncode == 0
    svg = (tmp_path / "render_6.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<svg" in svg


def test_lemniscate_subcommand(tmp_path):
    p = tmp_path / "lemn.json"
    p.write_text(json.dumps(LEMNISCATE))
    r = run_cli("lemniscate", "--problem", str(p), "--n", "2,4",
                "--out", str(tmp_path))
    assert r.returncode == 0
    data = json.loads((tmp_path / "lemniscate.json").read_text())
    assert data["compact"] is True
    assert (tmp_path / "lemniscate_roots.csv").exists()
    assert (tmp_path / "lemniscate_4.svg").exists()
    # every cell is a plain number, not a numpy scalar's repr
    rows = list(csv.reader(open(tmp_path / "lemniscate_roots.csv")))
    assert rows[0] == ["n", "re", "im"]
    assert len(rows) == 1 + 21 * (2 + 4)  # deg R_n = 21 n
    for row in rows[1:]:
        for cell in row:
            float(cell)  # raises on "np.float64(...)"


def test_determinism(problem, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        r = run_cli("compare", "--problem", str(problem), "--n", "8",
                    "--seed", "3", "--out", str(d))
        assert r.returncode == 0
    assert (a / "compare.json").read_bytes() == (b / "compare.json").read_bytes()
    assert (a / "atoms_8.csv").read_bytes() == (b / "atoms_8.csv").read_bytes()


def test_missing_file_exits_1(tmp_path):
    r = run_cli("roots", "--problem", str(tmp_path / "nope.json"))
    assert r.returncode == 1


def test_malformed_json_exits_1(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"poles": bad}')
    r = run_cli("roots", "--problem", str(p))
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


def test_duplicate_pole_exits_2(tmp_path):
    p = tmp_path / "dup.json"
    pole = {"re": 0.0, "im": 1.0, "order": 1,
            "coeffs": [{"re": 1.0, "im": 0.0}]}
    p.write_text(json.dumps({"poles": [pole, pole]}))
    r = run_cli("voronoi", "--problem", str(p))
    assert r.returncode == 2


def test_module_entry_exit_codes(problem, tmp_path):
    # python -m voroderiv.cli passes main's code on as the process's
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"poles": TWO_POLE["poles"][:1] * 2}))
    for path, code in ((problem, 0), (dup, 2)):
        r = subprocess.run([sys.executable, "-m", "voroderiv.cli", "voronoi",
                            "--problem", str(path), "--out", str(tmp_path)],
                           capture_output=True, text=True)
        assert r.returncode == code, r.stderr
    assert (tmp_path / "voronoi.json").exists()


MIXED_ORDERS = {"poles": [dict(TWO_POLE["poles"][0], order=2, coeffs=[0.0, [0.0, -0.5]]),
                          TWO_POLE["poles"][1]]}


@pytest.mark.parametrize("data, argv, message", [
    (TWO_POLE, ["potential", "--grid", "8"], "grid resolution must be >= 16"),
    (TWO_POLE, ["roots", "--out", "{tmp}/problem.json/out"], "cannot create output directory"),
    (MIXED_ORDERS, ["odecheck"], "odecheck requires a common pole order"),
    *[(TWO_POLE, [cmd, "--n", "3,4"], f"--n takes one order for {cmd}")
      for cmd in ("roots", "derive", "render")],
], ids=["grid-8", "out-under-a-file", "odecheck-mixed-orders",
        "n-list-roots", "n-list-derive", "n-list-render"])
def test_rejected_arguments_exit_1_and_write_nothing(tmp_path, capsys, data, argv, message):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(data))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--problem", str(p)]) == 1
    assert message in capsys.readouterr().err
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == [p]
    if "--grid" in argv or "--n" in argv:  # rejected before --out is made
        assert not (tmp_path / "out").exists()


def _with_pole(**changes):
    return {"poles": [dict(TWO_POLE["poles"][0], **changes), TWO_POLE["poles"][1]]}


TWO_LEMNISCATE = {"lemniscate": {"polynomials": [[-1.0, 1.0], [1.0, 1.0]]}}


def _with_lemniscate(**changes):
    return {"lemniscate": dict(TWO_LEMNISCATE["lemniscate"], **changes)}


@pytest.mark.parametrize("data, message", [
    ({"poles": [1, -1]}, "poles[0] must be an object, not 1"),
    ({"poles": [[1, 0], [0, 1]]}, "poles[0] must be an object, not [1, 0]"),
    ([TWO_POLE], "problem must be an object"),
    (_with_pole(coeffs=5), "poles[0].coeffs must be a list, not 5"),
    (dict(TWO_POLE, polynomial_part=3), "polynomial_part must be a list, not 3"),
    (_with_pole(im=None), "poles[0].im must be a finite number, not None"),
    (_with_pole(coeffs=[{"re": 1.0, "im": None}]), "poles[0].coeffs[0].im must be a finite number"),
    (_with_pole(order=2.5), "poles[0].order must be an integer, not 2.5"),
    (_with_pole(re=math.inf), "poles[0].re must be a finite number, not inf"),
    (_with_pole(order=1e300), "poles[0].order must be 1 with coeffs of length 1, not 1e+300"),
    ({"poles": [{"re": 0.0, "im": 1.0, "order": 1e300}, TWO_POLE["poles"][1]]},
     "poles[0].order must be 1 with no coeffs, not 1e+300"),
    ({"poles": [{"re": 0.0, "im": 1.0, "order": 1000000000}, TWO_POLE["poles"][1]]},
     "poles[0].order must be 1 with no coeffs, not 1000000000"),
    (_with_pole(order=3, coeffs=[1.0, 2.0]),
     "poles[0].order must be 2 with coeffs of length 2, not 3"),
    (_with_lemniscate(polynomials=5), "lemniscate.polynomials must be a list, not 5"),
    (_with_lemniscate(multipliers=2), "lemniscate.multipliers must be a list, not 2"),
    (_with_lemniscate(multipliers=[1, None]), "lemniscate.multipliers[1] must be an integer"),
    (_with_lemniscate(multipliers=[1.7, 1]), "lemniscate.multipliers[0] must be an integer"),
], ids=["poles-numbers", "poles-pairs", "top-level-list", "coeffs-number", "pp-number",
        "im-null", "coeff-im-null", "order-fraction", "re-inf", "order-huge",
        "order-huge-no-coeffs", "order-1e9-no-coeffs", "order-past-coeffs", "polynomials-number",
        "multipliers-number", "multiplier-null", "multiplier-fraction"])
def test_malformed_problem_exits_1_and_writes_nothing(tmp_path, capsys, data, message):
    # each shape crashed main with a traceback, or (order 2.5, multiplier
    # 1.7) ran truncated to an integer and exited 0; a huge order
    # overflowed building all-ones coefficients, an order of 1e9 would
    # have allocated them first, and an order unlike its coeffs' count
    # was reported without the field's name
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(data))
    lemniscate_file = isinstance(data, dict) and "lemniscate" in data
    command = ["lemniscate", "--n", "4"] if lemniscate_file else ["roots", "--n", "2"]
    assert cli.main(command + ["--problem", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert "Traceback" not in err
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == [p]


@pytest.mark.parametrize("command", ["render", "potential", "lemniscate"])
@pytest.mark.parametrize("window", ["0,0,0", "0,0,-1", "0,0,nan", "0,0,inf", "nan,0,1",
                                    "0,inf,1", "0,0", "0,0,x"])
def test_bad_window_exits_1_and_writes_nothing(tmp_path, capsys, command, window):
    # a zero half-side divided by zero in the SVG, a negative one mirrored
    # it and a NaN one wrote NaN coordinates
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(LEMNISCATE if command == "lemniscate" else TWO_POLE))
    assert cli.main([command, "--problem", str(p), "--n", "4", "--window", window,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --window") and "Traceback" not in err
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == [p]

def test_unknown_flag_exits_1(problem, tmp_path):
    r = run_cli("roots", "--problem", str(problem), "--no-extended-retry",
                "--out", str(tmp_path))
    assert r.returncode == 1
