"""Spans around the library's public functions, installed from outside.

`Tracer.install()` replaces module attributes with timing wrappers by
`setattr`; `restore()` puts the originals back.  Because the library
calls its own functions through module globals and module attributes
(`rootfind.solve`, `psi_max`, `rn_evaluator`, ...), the wrappers see
every call the CLI makes without any change to the library.

Each wrapper records total time, self time (its span minus the wrapped
spans nested inside it) and a call count under a key.  The point
evaluators returned by `newton_evaluator` and `rn_evaluator` are wrapped
too: their calls inside `rootfind.solve` are the Aberth sweeps, and the
points that moved since the previous call measure how many roots were
still active.  A target that no longer exists is recorded as missing,
and every metric derived from it is reported as missing, not zero.
"""

import time
from collections import defaultdict

import mpmath
import numpy as np

from voroderiv import asympt, cli, lemniscate, measure, rational, rootfind, svg, voronoi
from voroderiv.errors import NoConvergence

DOUBLE_SWEEP_LIMIT = getattr(rootfind, "MAX_SWEEPS", {}).get("double", 200)

# (module, attribute, key, kind); kind selects the wrapper.
TARGETS = (
    (cli, "main", "cli.main", "span"),
    (rational, "derivative_state", "rational.derivative_state", "span"),
    (rational, "numerator", "rational.numerator", "numerator"),
    (rational, "newton_evaluator", "rational.evaluator", "evaluator"),
    (rootfind, "solve", "rootfind.solve", "solve"),
    (voronoi, "build", "voronoi.build", "span"),
    (measure, "skeleton_starts", "measure.skeleton_starts", "span"),
    (asympt, "psi", "voronoi.psi", "span"),
    (asympt, "potential_l1", "asympt.potential_l1", "span"),
    (asympt, "project_and_bin", "asympt.project_and_bin", "span"),
    (asympt, "empirical", "asympt.empirical", "span"),
    (lemniscate, "compactness_and_compare", "lemniscate.compare", "span"),
    (lemniscate, "psi_max", "lemniscate.psi_max", "span"),
    (lemniscate, "rn_evaluator", "lemniscate.evaluator", "evaluator"),
    (lemniscate, "build_rn", "lemniscate.build_rn", "span"),
    (lemniscate, "dominance_radius", "lemniscate.dominance_radius", "span"),
    (svg, "render_svg", "svg.render", "span"),
)


def _nonfinite(coeffs):
    arr = np.asarray(coeffs)
    if arr.dtype == object:
        return sum(1 for c in arr if not mpmath.isfinite(c))
    return int(np.count_nonzero(~np.isfinite(arr)))


class Tracer:
    """Accumulates span times and counters while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = set()
        self._stack = [0.0]
        self._saved = []
        self._solve = None  # evaluator calls and time of the running solve

    # -- span bookkeeping -------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, key, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += dt
        self.seconds[key] += dt
        self.self_seconds[key] += dt - child
        self.calls[key] += 1
        return dt

    def _span(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, t0)
        return wrapper

    # -- wrappers with counters ---------------------------------------------

    def _numerator(self, key, fn):
        timed = self._span(key, fn)

        def numerator(*args, **kwargs):
            res = timed(*args, **kwargs)
            r_n = res.r_n
            self.counts["rational.nonfinite_coeffs"] += _nonfinite(r_n)
            # every workload instance asks for double precision, so an
            # object-dtype result is the CLI's extended retry
            if np.asarray(r_n).dtype == object:
                self.counts["cli.escalations"] += 1
            return res
        return numerator

    def _evaluator(self, key, factory):
        timed_factory = self._span(key + ".factory", factory)

        def make(*args, **kwargs):
            return self._closure(key, timed_factory(*args, **kwargs))
        return make

    def _closure(self, key, eval_pd):
        prev = None

        def wrapped(z):
            nonlocal prev
            pts = np.atleast_1d(np.asarray(z))
            if prev is not None and prev.shape == pts.shape:
                self.counts["evaluator.compared"] += pts.size
                self.counts["evaluator.changed"] += int(np.count_nonzero(pts != prev))
            prev = pts.copy()
            self.counts[key + ".points"] += pts.size
            t0 = self._enter()
            try:
                return eval_pd(z)
            finally:
                dt = self._exit(key, t0)
                if self._solve is not None:
                    self._solve[0] += 1
                    self._solve[1] += dt
        return wrapped

    def _solver(self, key, fn):
        double = self._span(key, fn)
        extended = self._span(key + "_extended", fn)

        def solve(p, *args, **kwargs):
            on_object = (kwargs.get("evaluator") is None
                         and getattr(p, "dtype", None) == object)
            outer, self._solve = self._solve, [0, 0.0]
            try:
                return (extended if on_object else double)(p, *args, **kwargs)
            except NoConvergence:
                self.counts["rootfind.noconv"] += 1
                raise
            finally:
                sweeps, eval_s = self._solve
                self._solve = outer
                if not on_object:
                    self.counts["rootfind.sweeps"] += sweeps
                    self.seconds["rootfind.solve.evaluator"] += eval_s
                    # a first attempt that uses up its sweep budget makes
                    # limit + 1 evaluator calls before the retry starts
                    if sweeps > DOUBLE_SWEEP_LIMIT + 1:
                        self.counts["rootfind.retries"] += 1
        return solve

    # -- installation -------------------------------------------------------

    def install(self):
        makers = {"span": self._span, "numerator": self._numerator,
                  "evaluator": self._evaluator, "solve": self._solver}
        for module, attr, key, kind in TARGETS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.add(key)
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, makers[kind](key, orig))

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def snapshot(self):
        return (dict(self.seconds), dict(self.counts))
