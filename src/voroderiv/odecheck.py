"""Residuals of the differential equations satisfied by the derivatives.

Two concrete checks: the order-d equation obeyed by derivatives of
power sums sum_j w_j (z - z_j)^{-s}, and the second-order equation for
the monic numerator in the two-simple-pole case.  Residuals are taken
relative to the largest term, since the raw terms grow with Pochhammer
factors; the two-pole residual also comes back raw on request.
"""

import cmath
from dataclasses import dataclass

from . import _poly
from .errors import AtPole

__all__ = [
    "PowerSumFunction",
    "powersum_residual",
    "d2_numerator_residual",
]


@dataclass(frozen=True)
class PowerSumFunction:
    """Q(z) = sum_j weights[j] (z - poles[j])^{-s}."""

    s: int
    poles: tuple
    weights: tuple

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("order s must be positive")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero")
        ps = [complex(p) for p in self.poles]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if ps[i] == ps[j]:
                    raise ValueError("poles must be distinct")

    @property
    def d(self):
        return len(self.poles)

    def _scaled_powers(self, n, z):
        """(shifts, powers): the z - z_j, and w_j (z - z_j)^(-s-n) on the
        principal branch, formed in log space and divided by their largest
        modulus.  Raises AtPole when z is a pole."""
        z = complex(z)
        if any(z == complex(zj) for zj in self.poles):
            raise AtPole("z coincides with a pole")
        shifts = [z - complex(zj) for zj in self.poles]
        logs = [(-self.s - n) * cmath.log(u) for u in shifts]
        top = max(lg.real for lg in logs)
        return shifts, [complex(w) * cmath.exp(lg - top)
                        for w, lg in zip(self.weights, logs)]


def powersum_residual(f, n, z):
    """Left side of the power-sum derivative equation; expected zero.

    sum_{i=0}^d e_i(z) / ((s+n)(s+n+1)...(s+n+i-1)) Q^{(n+i)}(z) with
    e_i the elementary symmetric functions of (z - z_1) .. (z - z_d),
    relative to its largest term (raw when every term is zero).  Term i
    is (-1)^n (s)_n e_i (-1)^i sum_j w_j (z - z_j)^(-s-n-i); the common
    factor (-1)^n (s)_n cancels, and the powers are formed in log space
    and scaled by their largest modulus, so no n overflows.
    """
    shifts, powers = f._scaled_powers(n, z)
    # prod_j (t + z - z_j) = sum_i e_i t^(d-i)
    e = _poly.product([_poly.asarray([u, 1.0], _poly.DOUBLE) for u in shifts], [1] * f.d)[::-1]
    terms = [e[i] * (-1) ** i * sum(p * u ** -i for p, u in zip(powers, shifts))
             for i in range(f.d + 1)]
    acc = sum(terms)
    biggest = max(abs(t) for t in terms)
    return acc / biggest if biggest > 0.0 else acc


def d2_numerator_residual(z1, z2, n, z, printed=False, relative=True):
    """ODE residual for the monic numerator of the n-th derivative of
    1/(z-z1) + 1/(z-z2); zero identically with the corrected weights.

    R_n is proportional to (z-z1)^{n+1} + (z-z2)^{n+1}.  The corrected
    equation is P0 R''/(n(n+1)) - e1 R'/(n+1) + R = 0 with
    P0 = (z-z1)(z-z2), e1 = 2z - z1 - z2.  With printed=True the
    second-derivative weight uses (n+1)(n+2) instead, which leaves a
    nonzero polynomial remainder; it is returned as a witness.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z1, z2, z = complex(z1), complex(z2), complex(z)
    lin1 = _poly.asarray([-z1, 1.0], _poly.DOUBLE)
    lin2 = _poly.asarray([-z2, 1.0], _poly.DOUBLE)
    r = _poly.polypow(lin1, n + 1) + _poly.polypow(lin2, n + 1)
    r = r / r[-1]
    dr = _poly.polyder(r)
    ddr = _poly.polyder(dr)
    p0 = (z - z1) * (z - z2)
    e1 = 2.0 * z - z1 - z2
    second_weight = (n + 1) * (n + 2) if printed else n * (n + 1)
    terms = (
        p0 * _poly.polyval(ddr, z) / second_weight,
        -e1 * _poly.polyval(dr, z) / (n + 1),
        _poly.polyval(r, z),
    )
    acc = sum(terms)
    if relative:
        biggest = max(abs(t) for t in terms)
        return acc / biggest if biggest > 0 else acc
    return acc
