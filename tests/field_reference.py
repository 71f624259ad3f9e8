"""One-point forms of the studies' certificate fields, and a row lift.

The library writes each field of a ScalarField once, as a row form.  The
functions below are the same fields written one point at a time, as the
studies once wrote them, kept here as references: the tests hold each
row form to the bits of its one-point form at every row.  point_field
builds a ScalarField from one-point functions, so test fixtures can be
written one point at a time.
"""

import math

import numpy as np

from hybridcert import ScalarField
from hybridcert.certificates import FD_STEP
from hybridcert.examples import (
    B_SENTINEL, BouncingBallParams, DomainViolation, MooreGreitzerParams,
    expit,
)
from hybridcert.geometry import as_vector


def point_field(value, grad=None, domain=None):
    """A ScalarField of one-point functions: each is called on the rows
    one by one, as a 1-D float array, and its results are stacked."""
    def rows(fn):
        return lambda X: [fn(x) for x in X]

    def grad_rows(X):
        return np.array([as_vector(grad(x)) for x in X],
                        dtype=float).reshape(X.shape)

    return ScalarField(rows(lambda x: float(value(x))),
                       None if grad is None else grad_rows,
                       None if domain is None
                       else rows(lambda x: bool(domain(x))))


def fd_gradient(value, x):
    """Central differences of a one-point value at x, point by point."""
    x = as_vector(x)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = FD_STEP
        g[i] = (value(x + e) - value(x - e)) / (2.0 * FD_STEP)
    return g


def ball_fields(p=None):
    """The bouncing ball's V, grad V, B and grad B at one state s."""
    p = p or BouncingBallParams()
    a, lam = p.a, p.restitution
    c_lam = (1.0 - lam**2) / (math.pi * (1.0 + lam**2))

    def V(s):
        return (1.0 + c_lam * math.atan(s[2])) * (0.5 * s[2] ** 2 + a * s[1])

    def V_grad(s):
        energy = 0.5 * s[2] ** 2 + a * s[1]
        weight = 1.0 + c_lam * math.atan(s[2])
        return np.array(
            [0.0, a * weight, c_lam * energy / (1.0 + s[2] ** 2) + weight * s[2]]
        )

    def B(s):
        return 0.5 * expit(5.0 * s[0]) - s[1] - s[2] ** 2 / (2.0 * a) + 9.5

    def B_grad(s):
        sig = expit(5.0 * s[0])
        return np.array([2.5 * sig * (1.0 - sig), -1.0, -s[2] / a])

    return V, V_grad, B, B_grad


def mg_fields(p=None):
    """The compressor's V, grad V, B, grad B and B's domain at one state."""
    p = p or MooreGreitzerParams()
    zeta = np.array(p.zeta)
    center = np.array(p.protect_center)
    r = p.protect_radius

    def V(x):
        d = as_vector(x) - zeta
        return float(d @ d)

    def V_grad(x):
        return 2.0 * (as_vector(x) - zeta)

    def h_val(x):
        v = as_vector(x)
        return max(abs(v[0] - center[0]), abs(v[1] - center[1])) - r

    def B(x):
        h = h_val(x)
        if h <= 0.0:
            return B_SENTINEL
        return math.log1p(h) - math.log(h)

    def B_grad(x):
        v = as_vector(x)
        h = h_val(x)
        if h <= 0.0:
            raise DomainViolation("barrier gradient inside the singular box")
        d0, d1 = abs(v[0] - center[0]), abs(v[1] - center[1])
        g = np.zeros(2)
        i = 0 if d0 >= d1 else 1
        g[i] = math.copysign(1.0, v[i] - center[i])
        return -g / (h * (1.0 + h))

    def B_domain(x):
        v = as_vector(x)
        d0, d1 = abs(v[0] - center[0]), abs(v[1] - center[1])
        return max(d0, d1) - r >= 0.01 and abs(d0 - d1) >= 0.01

    return V, V_grad, B, B_grad, B_domain
