"""Dense polynomial helpers over two scalar backends.

Polynomials are 1-d arrays of coefficients in ascending degree order.
The "double" backend uses complex128 ndarrays; the "extended" backend
uses object ndarrays of mpmath.mpc with ~133 bits of precision, enough
headroom for the exact cancellations that double cannot resolve.
np.convolve multiplies polynomials in either backend; polyval evaluates
along the first axis: scalars, point arrays, or stacked rows of shape
(powers, rows, 1) at (points,) or (rows, points).
"""

import numpy as np
import mpmath

DOUBLE = "double"
EXTENDED = "extended"

# 40 digits ~ 133 bits; comfortably above the 64 fractional bits needed.
EXTENDED_DPS = 40

# Relative floor below which a Laurent coefficient mu_j of Q's pole part
# at infinity counts as zero (rational.leading_term), against the
# magnitudes of the terms summed into it.  The double value sits well
# above the rounding of that short sum; the extended value leaves ~15
# digits of headroom.
DEGREE_FLOOR = {DOUBLE: 1e-12, EXTENDED: 1e-25}


def workprec():
    """Context manager setting the extended-precision digit count."""
    return mpmath.workdps(EXTENDED_DPS)


def scalar(x, precision):
    if precision == DOUBLE:
        return complex(x)
    with workprec():
        if isinstance(x, complex):
            return mpmath.mpc(x.real, x.imag)
        return mpmath.mpc(x)


def asarray(coeffs, precision):
    if precision == DOUBLE:
        a = np.asarray(coeffs, dtype=complex)
        if a.ndim == 0:
            a = a.reshape(1)
        return a.copy()
    out = np.empty(max(len(coeffs), 1), dtype=object)
    if len(coeffs) == 0:
        out[0] = scalar(0.0, EXTENDED)
        return out
    for k, c in enumerate(coeffs):
        out[k] = scalar(c, EXTENDED)
    return out


def zeros(n, precision):
    return np.full(n, scalar(0.0, precision), dtype=complex if precision == DOUBLE else object)


def precision_of(p):
    return DOUBLE if p.dtype == complex else EXTENDED


def trim(p):
    """Drop exact-zero leading coefficients, keeping at least the constant."""
    nonzero = np.flatnonzero(p != 0)
    return p[: nonzero[-1] + 1 if len(nonzero) else 1]


def all_finite(p):
    if precision_of(p) == DOUBLE:
        return bool(np.isfinite(p).all())
    return all(mpmath.isfinite(c) for c in p)


def is_zero(p):
    return all(abs(c) == 0 for c in p)


def degree(p):
    return len(p) - 1


def polyval(p, z):
    """Horner along p's first axis, acc * z + p[k] per power, either backend."""
    acc = p[-1]
    for k in range(len(p) - 2, -1, -1):
        acc = acc * z + p[k]
    return acc


def polypow(p, k):
    """p**k by binary exponentiation, k >= 1."""
    result = None
    base = p
    while k:
        if k & 1:
            result = base if result is None else np.convolve(result, base)
        k >>= 1
        if k:
            base = np.convolve(base, base)
    return result


def product(factors, exponents):
    """prod_k factors[k]^exponents[k], expanded; exponents are non-negative."""
    out = asarray([1.0], precision_of(factors[0]))
    for f, e in zip(factors, exponents):
        if e:
            out = np.convolve(out, polypow(f, e))
    return out


def polyder(p):
    if len(p) == 1:
        return zeros(1, precision_of(p))
    return p[1:] * np.arange(1, len(p))


def taylor_shift(p, a):
    """Coefficients of p(z + a), by repeated synthetic division at a."""
    precision = precision_of(p)
    work = asarray(list(p), precision)
    n = len(work)
    out = zeros(n, precision)
    for k in range(n):
        if len(work) == 1:
            out[k] = work[0]
            break
        quot = zeros(len(work) - 1, precision)
        acc = work[-1]
        for j in range(len(work) - 2, -1, -1):
            quot[j] = acc
            acc = acc * a + work[j]
        out[k] = acc
        work = quot
    return out


def series_inverse(p, order):
    """First `order` coefficients of 1/p as a power series; p[0] != 0."""
    precision = precision_of(p)
    inv = zeros(order, precision)
    inv[0] = 1.0 / p[0]
    for k in range(1, order):
        acc = zeros(1, precision)[0]
        for j in range(1, min(k, len(p) - 1) + 1):
            acc = acc + p[j] * inv[k - j]
        inv[k] = -acc / p[0]
    return inv


def polydivmod(a, b):
    """Quotient and remainder of a / b (b trimmed, nonzero lead)."""
    precision = precision_of(a)
    b = trim(b)
    if len(a) < len(b):
        return zeros(1, precision), a.copy()
    rem = asarray(list(a), precision)
    qn = len(a) - len(b) + 1
    quot = zeros(qn, precision)
    for k in range(qn - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j in range(len(b)):
            rem[k + j] = rem[k + j] - c * b[j]
    return quot, trim(rem)

