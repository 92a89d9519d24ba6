"""Problem files, CLI invocations and output checks of each workload.

Every instance is one `voroderiv` CLI call on a generated problem file,
with a check that reads the artifacts the call wrote.  A check returns
None when the output is right and a one-line reason otherwise.  The
workload seed moves the `ladder` poles; every `grid_l1` problem is
fixed.  The CLI sees only the files.  Every instance is one on which
the CLI currently succeeds; README.md lists the calls left out because
they fail.
"""

import cmath
import contextlib
import csv
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

from voroderiv import cli

# ladder: criteria 04 and 13 at degrees 202 to 2107
D3_COEFFS = (1.0, 2.0, 1.0 + 1.0j)
D3_RUNGS = (100, 400, 1000)
D8_RUNGS = (100, 200, 300)
D8_GENERATOR_SEED = 11  # criterion 13's draw of eight poles
OFF_SKELETON_MAX = 0.01
KS_MAX = 0.05
# An edge with k atoms has KS >= 1/(2k), so the KS gate covers only the
# edges whose limit mass predicts at least this many atoms.
KS_MIN_ATOMS = 50

# grid_l1: criterion 05's potential discrepancy and the lemniscates of
# criteria 12 and 13, all on a 200 x 200 grid
GRID = 200
POTENTIAL_L1 = {25: 0.1154, 50: 0.0711, 100: 0.0424, 200: 0.0246}
POTENTIAL_L1_TOL = 5e-4
LEMNISCATES = (
    ("c12", {"polynomials": [[0.0, 0.0, 1.0], [-3.0, 1.0]],
             "multipliers": [1, 1]}, "0,0,6", (10, 20, 40, 80)),
    ("figure", {"polynomials": [[-1.0, 1.0], [1.0, 1.0],
                                [{"re": 0.0, "im": -1.0}, 1.0],
                                [{"re": 0.0, "im": 1.0}, 1.0]],
                "multipliers": [12, 8, 7, 21]}, "0,0,2", (4, 8)),
)


@dataclass(frozen=True)
class Instance:
    """One CLI call: argv without --out, and the check of its output."""

    slot: str  # unique name, used for the output directory
    label: str  # groups instances in reports
    argv: tuple
    check: object  # callable(out_dir) -> None or reason


def _cx(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _write_poles(path, poles, residues):
    doc = {"poles": [dict(_cx(z), order=1, coeffs=[_cx(a)])
                     for z, a in zip(poles, residues)]}
    path.write_text(json.dumps(doc))
    return str(path)


def _reciprocal_residues(poles):
    """Residues of 1 / prod (z - z_i) at its simple poles."""
    return [1.0 / np.prod([z - w for k, w in enumerate(poles) if k != i])
            for i, z in enumerate(poles)]


def d8_poles(seed):
    """Criterion 13's eight poles under a seed-drawn rotation about 0.

    The Aberth sweep count depends on the pole geometry (24 to 103
    evaluator calls at n = 300 over independent draws), so independent
    draws would make the run time a property of the seed.  A rotation
    keeps the geometry, and with it the work, while the seed still moves
    every pole.  It also keeps every coefficient modulus of the problem,
    and so the numerator's overflow pattern: a shrinking map made
    `numerator()` drop a degree (see README.md).
    """
    base = np.random.default_rng(D8_GENERATOR_SEED)
    base = base.normal(size=8) + 1j * base.normal(size=8)
    turn = cmath.exp(2j * math.pi * np.random.default_rng(seed).random())
    return [complex(turn * z) for z in base]


def _check_compare(m_expected, gate_ks):
    def check(out):
        rep = json.loads((out / "compare.json").read_text())[0]
        if rep["m_n"] != m_expected:
            return f"m_n {rep['m_n']} != {m_expected}"
        if not rep["off_skeleton_fraction"] < OFF_SKELETON_MAX:
            return f"off-skeleton fraction {rep['off_skeleton_fraction']}"
        if gate_ks:
            ks = max(e["ks"] for e in rep["edges"]
                     if e["mass"] * rep["m_n"] >= KS_MIN_ATOMS)
            if not ks < KS_MAX:
                return f"per-edge KS {ks}"
        return None
    return check


def ladder(seed, problems):
    cube = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    d8 = d8_poles(seed)
    sets = (
        ("d3", _write_poles(problems / "d3.json", cube, D3_COEFFS),
         D3_RUNGS, lambda n: 2 * n + 2),
        ("d8", _write_poles(problems / "d8.json", d8, _reciprocal_residues(d8)),
         D8_RUNGS, lambda n: 7 * n),
    )
    return [
        Instance(slot=f"{name}_{n}", label=f"{name} n={n}",
                 argv=("compare", "--problem", path, "--n", str(n)),
                 check=_check_compare(degree(n), gate_ks=(n == rungs[-1])))
        for name, path, rungs, degree in sets for n in rungs
    ]


def _check_potential(n):
    def check(out):
        with open(out / "potential_l1.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        value = float(rows[0][1])
        if not abs(value - POTENTIAL_L1[n]) <= POTENTIAL_L1_TOL:
            return f"L1 {value} vs {POTENTIAL_L1[n]}"
        return None
    return check


def _check_lemniscate(out):
    doc = json.loads((out / "lemniscate.json").read_text())
    if not doc["compact"] or doc["dominance_radius"] is None:
        return "not compact"
    if not max(doc["max_root_modulus"]) <= doc["dominance_radius"]:
        return f"root modulus {max(doc['max_root_modulus'])} > {doc['dominance_radius']}"
    return None


def grid_l1(seed, problems):
    del seed  # every grid_l1 problem is fixed; none of them is drawn
    path = _write_poles(problems / "inv_1pz2.json", [1j, -1j], [-0.5j, 0.5j])
    out = [
        Instance(slot=f"potential_{n}", label=f"potential n={n}",
                 argv=("potential", "--problem", path, "--n", str(n),
                       "--grid", str(GRID)),
                 check=_check_potential(n))
        for n in POTENTIAL_L1
    ]
    for name, spec, window, rungs in LEMNISCATES:
        lpath = problems / f"lemniscate_{name}.json"
        lpath.write_text(json.dumps({"lemniscate": spec}))
        out += [
            Instance(slot=f"{name}_{n}", label=f"lemniscate {name} n={n}",
                     argv=("lemniscate", "--problem", str(lpath), "--n", str(n),
                           "--window", window, "--grid", str(GRID)),
                     check=_check_lemniscate)
            for n in rungs
        ]
    return out


WORKLOADS = {"ladder": ladder, "grid_l1": grid_l1}


def prepare(workload, seed, problems):
    """Write the workload's problem files under `problems`; list its instances."""
    problems.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, problems)


def run_instance(inst, work):
    """Run one CLI call in its own output directory and check its output.

    Returns the exit code (None when cli.main raised), the wall time of
    the call (`seconds`) and of the call and its check (`checked_s`), the
    reason the instance failed (None when it passed) and whether that
    failure is a wrong answer rather than a reported one.
    """
    out = work / "out" / inst.slot
    shutil.rmtree(out, ignore_errors=True)
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(list(inst.argv) + ["--out", str(out)])
    except Exception:  # a crash is counted like any failed instance
        code = None
        stderr.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    wrong = code is None
    if code == 0:
        try:
            error = inst.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        wrong = error is not None
    else:
        error = f"exit code {code}: {stderr.getvalue().strip().splitlines()[-1:]}"
    return {"slot": inst.slot, "label": inst.label, "code": code,
            "seconds": seconds, "checked_s": time.perf_counter() - t0,
            "error": error, "wrong": wrong}
