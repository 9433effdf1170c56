"""Shared helpers for the test suite: parameter factories and independent oracles."""

import math

import numpy as np

import corruption_mfg as cm
from corruption_mfg import stability
from corruption_mfg.equilibria import _where


def make_params(lam=1.0, r=1.0, b=1.0, f=0.0, q_soc=0.0, q_inf=0.0,
                w_R=0.0, w_H=1.0, w_C=10.0):
    return cm.ModelParams(lam=lam, r=r, b=b, f=f, q_soc=q_soc, q_inf=q_inf,
                          w_R=w_R, w_H=w_H, w_C=w_C)


# Frequently used scenarios: the interaction-free corrupt baseline and the
# parameter set with three coexisting equilibria.
BASELINE = make_params()
THREE_EQ = make_params(lam=0.1, r=1.0, b=0.2, f=0.0, q_soc=0.5, q_inf=2.0,
                       w_R=0.0, w_H=1.0, w_C=1.275)
# THREE_EQ as the model lines of a CLI config.
THREE_EQ_CONFIG = ("lambda = 0.1\nr = 1\nb = 0.2\nf = 0\nq_soc = 0.5\nq_inf = 2\n"
                   "w_R = 0\nw_H = 1\nw_C = 1.275\n")


def random_params(rng, zero_q=False):
    """Broad random valid parameter set (rates and couplings over ~4 decades)."""
    lam, r, b = (float(v) for v in 10 ** rng.uniform(-1.3, 0.7, 3))
    f = 0.0 if rng.random() < 0.3 else float(10 ** rng.uniform(-2, 0.7))
    if zero_q:
        q_soc = q_inf = 0.0
    else:
        q_soc = 0.0 if rng.random() < 0.15 else float(10 ** rng.uniform(-2, 0.9))
        q_inf = 0.0 if rng.random() < 0.15 else float(10 ** rng.uniform(-2, 0.9))
    w_R = float(rng.uniform(0, 1))
    w_H = w_R + float(10 ** rng.uniform(-1.3, 0.5))
    w_C = w_H + float(10 ** rng.uniform(-1.3, 0.9))
    return make_params(lam, r, b, f, q_soc, q_inf, w_R, w_H, w_C)


def moderate_params(rng):
    """Random valid parameter set over moderate, desk-scale ranges.

    Rates in [0.1, 5], couplings in [0.5, 5], wage gaps in [0.1, 3]; keeps
    classifier sensitivities bounded, used by the continuity checks.
    """
    lam, r, b = (float(v) for v in 10 ** rng.uniform(-1, 0.7, 3))
    f = 0.0 if rng.random() < 0.3 else float(10 ** rng.uniform(-1, 0.5))
    q_soc = float(10 ** rng.uniform(-0.3, 0.7))
    q_inf = float(10 ** rng.uniform(-0.3, 0.7))
    w_R = float(rng.uniform(0, 1))
    w_H = w_R + float(10 ** rng.uniform(-1, 0.48))
    w_C = w_H + float(10 ** rng.uniform(-1, 0.48))
    return make_params(lam, r, b, f, q_soc, q_inf, w_R, w_H, w_C)


def report_of(p, provenance):
    """The report of ``provenance`` in the enumeration of ``p``, or None."""
    found = [rep for rep in cm.enumerate_equilibria(p) if rep.provenance is provenance]
    assert len(found) <= 1
    return found[0] if found else None


def random_simplex(rng, margin=0.0):
    x = rng.dirichlet((1.0, 1.0, 1.0))
    if margin:
        x = x * (1.0 - 3.0 * margin) + margin
    x = x / x.sum()
    return cm.PopulationState(float(x[0]), float(x[1]), float(x[2]))


ALL_STRATEGIES = cm.ALL_PROFILES


def q_at(p, x_H):
    """The corrupt fixed-point quadratic Q at ``x_H``, from ``cm.q_coefficients``
    in Horner form, the order the enumeration's ``q_value`` is rounded in."""
    alpha, beta, gamma = cm.q_coefficients(p)
    return (alpha * x_H + beta) * x_H + gamma


def bisect_root(func, lo, hi, tol=1e-12, max_iter=200):
    """Plain bisection; the independent oracle for root locations."""
    f_lo, f_hi = func(lo), func(hi)
    assert f_lo < 0 < f_hi, (f_lo, f_hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if func(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_jacobian(p, x, s, h=1e-6):
    """Central finite differences of the reduced (x_H, x_C) drift."""
    def f(x_h, x_c):
        state = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
        rhs = cm.kinetic_rhs(p, state, s)
        return np.array([rhs[1], rhs[2]])

    x_h, x_c = x.x_H, x.x_C
    col0 = (f(x_h + h, x_c) - f(x_h - h, x_c)) / (2 * h)
    col1 = (f(x_h, x_c + h) - f(x_h, x_c - h)) / (2 * h)
    return np.column_stack([col0, col1])


def eigen_verdict(m):
    """``(trace, det, eigenvalue real parts, classification)`` of a 2x2 matrix
    ``((a, b), (c, d))``: trace and determinant rounded in the order
    ``classify_equilibrium`` rounds them, and the classification from the
    top real part against the margin band."""
    (a, b), (c, d) = m
    trace, det = a + d, a * d - b * c
    parts = stability.eigen_real_parts(trace, det, math.sqrt, _where)
    top = max(parts)
    if top < -stability.MARGIN:
        return trace, det, parts, cm.Classification.STABLE
    if top > stability.MARGIN:
        return trace, det, parts, cm.Classification.UNSTABLE
    return trace, det, parts, cm.Classification.MARGINAL


def max_rhs(p, state, strategy):
    return max(abs(v) for v in cm.kinetic_rhs(p, state, strategy))
