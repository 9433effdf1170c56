"""Jacobians, eigenvalue real parts and the closed-form rules."""

import math
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg import stability
from corruption_mfg.equilibria import _where
from strategies import spread_params
from support import (
    BASELINE, THREE_EQ, eigen_verdict, fd_jacobian, make_params, random_params, random_simplex,
    report_of,
)


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_interaction_free_corrupt_point():
    x = cm.PopulationState(1 / 3, 1 / 3, 1 / 3)
    j = cm.jacobian(BASELINE, x, cm.CORRUPT_PROFILE)
    assert np.allclose(j, [[-2.0, -1.0], [1.0, -1.0]], atol=1e-15)


def test_jacobian_honest_boundary_eigenvalues():
    rng = np.random.default_rng(30)
    x = cm.PopulationState(0.0, 1.0, 0.0)
    for _ in range(50):
        p = random_params(rng)
        j = cm.jacobian(p, x, cm.HONEST_PROFILE)
        eig = sorted(np.linalg.eigvals(j).real)
        expected = sorted((-p.r, p.q_inf - p.q_soc - p.lam - p.b))
        assert np.allclose(eig, expected, atol=1e-10)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    for i in range(300):
        p = random_params(rng)
        x = random_simplex(rng, margin=1e-5)
        s = cm.ALL_PROFILES[i % 4]
        diff = np.max(np.abs(cm.jacobian(p, x, s) - fd_jacobian(p, x, s)))
        assert diff <= 1e-6


def test_jacobian_entries_are_python_floats():
    rng = np.random.default_rng(36)
    for i in range(20):
        j = cm.jacobian(random_params(rng), random_simplex(rng), cm.ALL_PROFILES[i % 4])
        assert len(j) == 2 and all(len(row) == 2 for row in j)
        assert all(type(v) is float for row in j for v in row)


# ---------------------------------------------------------------------------
# eigenvalue real parts from the trace and determinant


def _real_parts(trace, det):
    return stability.eigen_real_parts(trace, det, math.sqrt, _where)


def _margin_test(parts):
    """The verdict of the margin test on the real parts ``parts``."""
    return stability._CLASSIFICATIONS[stability._verdict_index(-1, parts, _where)]


def test_trace_det_hand_case():
    # [[-2, -1], [1, -1]]: trace -3, det 3.  The roots of xi^2 + 3 xi + 3
    # are a complex pair with real part -1.5.
    assert _real_parts(-3.0, 3.0) == (-1.5, -1.5)
    assert _margin_test((-1.5, -1.5)) is cm.Classification.STABLE


def test_trace_det_saddle_and_source():
    # diag(1, -2): trace -1, det -2, a saddle; diag(0.5, 0.3): trace 0.8,
    # det 0.15, a source.  Both real eigenvalue pairs are exact.
    saddle = _real_parts(-1.0, -2.0)
    assert saddle == (-2.0, 1.0)
    assert _margin_test(saddle) is cm.Classification.UNSTABLE
    source = _real_parts(0.8, 0.15)
    assert source == pytest.approx((0.3, 0.5), abs=1e-15)
    assert _margin_test(source) is cm.Classification.UNSTABLE


def test_trace_det_marginal_center():
    # [[0, 1], [-1, 0]]: trace 0, det 1, eigenvalues +-i.
    center = _real_parts(0.0, 1.0)
    assert center == (0.0, 0.0)
    assert _margin_test(center) is cm.Classification.MARGINAL


# glibc 2.36's pow(disc, 0.5) gives 0.1507620566335782 and 1.3653051585108866.
@pytest.mark.parametrize("disc,root", [
    (0.022729197720386243, 0.15076205663357822),
    (1.864058175856437, 1.3653051585108864),
])
def test_eigen_real_parts_root_is_the_correctly_rounded_root(disc, root):
    assert float(Decimal(disc).sqrt(Context(prec=60))) == root
    # Trace 0 and det -disc / 4 give the discriminant disc exactly.
    assert _real_parts(0.0, -disc / 4.0) == (-root / 2.0, root / 2.0)


def test_eigen_real_parts_root_is_correctly_rounded_over_six_hundred_decades():
    context = Context(prec=60)
    for disc in (10.0 ** np.random.default_rng(30).uniform(-300.0, 300.0, 20_000)).tolist():
        root = float(Decimal(disc).sqrt(context))
        assert _real_parts(0.0, -disc / 4.0) == (-root / 2.0, root / 2.0), disc


def test_eigen_real_parts_on_arrays_have_the_bits_of_the_floats():
    # Real and complex pairs over many decades, zero discriminants, signed
    # zeros and non-finite values.  NaNs match as NaNs, whatever their bits.
    rng = np.random.default_rng(31)
    trace = rng.normal(size=20_000) * 10.0 ** rng.uniform(-150.0, 150.0, 20_000)
    det = rng.normal(size=20_000) * 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
    det[::4] = trace[::4] * trace[::4] / 4.0
    specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e300, -5e-324]
    pairs = np.array([(t, d) for t in specials for d in specials])
    trace, det = np.concatenate([trace, pairs[:, 0]]), np.concatenate([det, pairs[:, 1]])
    with np.errstate(all="ignore"):  # trace * trace and 4 * det may overflow, inf - inf
        arrays = stability.eigen_real_parts(trace, det, np.sqrt, np.where)
    floats = np.array([_real_parts(t, d) for t, d in zip(trace.tolist(), det.tolist())])
    for j in range(2):
        same = arrays[j].view(np.uint64) == floats[:, j].view(np.uint64)
        assert (same | (np.isnan(arrays[j]) & np.isnan(floats[:, j]))).all()
    assert (floats[:, 0] <= floats[:, 1]).sum() > 20_000


@pytest.mark.parametrize("trace,det,want", [
    (-3.0, 3.0, (-1.5, -1.5)),
    (0.0, 1.0, (0.0, 0.0)),
    (-0.0, 1.0, (-0.0, -0.0)),
    (2.5, math.nan, (1.25, 1.25)),
    (-0.0, math.nan, (-0.0, -0.0)),
    (math.inf, math.inf, (math.inf, math.inf)),
    (-0.0, 0.0, (-0.0, 0.0)),  # a zero discriminant: -0.0 + 0.0 is 0.0
])
def test_eigen_real_parts_of_a_complex_or_nan_discriminant_are_half_the_trace(trace, det, want):
    # A negative or NaN discriminant gives trace / 2 twice, signed zero kept.
    bits = lambda parts: np.array(parts, dtype=float).view(np.uint64).tolist()  # noqa: E731
    assert bits(_real_parts(trace, det)) == bits(want)
    with np.errstate(invalid="ignore"):  # inf - inf
        arrays = stability.eigen_real_parts(np.array([trace]), np.array([det]), np.sqrt, np.where)
    assert bits([v[0] for v in arrays]) == bits(want)


def test_eigen_real_parts_match_numpy():
    rng = np.random.default_rng(32)
    for _ in range(300):
        m = rng.normal(size=(2, 2)) * 3.0
        parts = _real_parts(float(np.trace(m)), float(np.linalg.det(m)))
        assert parts[0] <= parts[1]
        expected = sorted(np.linalg.eigvals(m).real)
        assert np.allclose(parts, expected, atol=1e-9)
        classification = _margin_test(parts)
        if classification is cm.Classification.STABLE:
            assert max(expected) < 0
        if max(expected) > 1e-6:
            assert classification is cm.Classification.UNSTABLE


# ---------------------------------------------------------------------------
# sufficient band for the corrupt point


def test_band_holds_for_equal_couplings():
    for q in (0.0, 0.3, 2.5):
        assert cm.corrupt_stability_band(make_params(q_soc=q, q_inf=q, w_C=3.0 + q))


def test_band_fails_for_three_equilibria_set():
    # q_soc - q_inf = -1.5 < -lam q_soc / r = -0.05
    assert not cm.corrupt_stability_band(THREE_EQ)


def test_band_implies_stable_corrupt_root():
    rng = np.random.default_rng(33)
    accepted = 0
    while accepted < 300:
        p = random_params(rng)
        if not cm.corrupt_stability_band(p):
            continue
        accepted += 1
        x_h, x_c = cm.corrupt_root(p)
        x = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
        *_, classification = eigen_verdict(cm.jacobian(p, x, cm.CORRUPT_PROFILE))
        assert classification is cm.Classification.STABLE


# ---------------------------------------------------------------------------
# classify_equilibrium


def test_classify_interaction_free_corrupt():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    v = cm.classify_equilibrium(BASELINE, rep)
    assert v.classification is cm.Classification.STABLE
    assert v.method is cm.Method.CLOSED_FORM
    assert dict(v.flags)["sufficient_band"]


def test_classify_three_equilibria_verdicts():
    reports = cm.enumerate_equilibria(THREE_EQ)
    verdicts = [cm.classify_equilibrium(THREE_EQ, rep) for rep in reports]

    corrupt, interior, boundary = verdicts
    # sufficient band is inconclusive at the corrupt root: eigenvalue fallback
    assert corrupt.method is cm.Method.FALLBACK
    assert not dict(corrupt.flags)["sufficient_band"]
    assert corrupt.classification is cm.Classification.STABLE

    assert interior.classification is cm.Classification.STABLE
    assert interior.method is cm.Method.CLOSED_FORM
    assert dict(interior.flags)["char_coefficients_positive"]

    assert boundary.classification is cm.Classification.UNSTABLE
    assert boundary.method is cm.Method.CLOSED_FORM
    # edge rate q_inf - q_soc - lam - b = 1.2 > 0
    assert max(boundary.eigen_real_parts) == pytest.approx(1.2, abs=1e-12)


def test_classify_no_interaction_both_cases_stable():
    for p in (BASELINE, make_params(w_H=5.0, w_C=5.5)):
        (rep,) = cm.enumerate_equilibria(p)
        v = cm.classify_equilibrium(p, rep)
        assert v.classification is cm.Classification.STABLE
        assert v.method is cm.Method.CLOSED_FORM


def test_classify_carries_the_trace_det_verdict_of_its_jacobian():
    # The equilibrium verdict reports exactly the trace, determinant and
    # eigenvalue real parts of its Jacobian, and their sign flags behind the
    # closed-form rule's one flag; at desk scale the rule and the eigenvalues
    # also agree on the classification.
    rng = np.random.default_rng(37)
    rule_flags = {"sufficient_band", "boundary_rate_negative", "char_coefficients_positive"}
    for _ in range(200):
        p = random_params(rng)
        for rep in cm.enumerate_equilibria(p):
            v = cm.classify_equilibrium(p, rep)
            trace, det, parts, classification = eigen_verdict(
                cm.jacobian(p, rep.state, rep.strategy))
            assert (v.classification, v.trace, v.det, v.eigen_real_parts) == (
                classification, trace, det, parts)
            assert v.eigen_real_parts[0] <= v.eigen_real_parts[1]
            assert v.flags[0][0] in rule_flags
            assert v.flags[1:] == (("trace_negative", trace < 0.0), ("det_positive", det > 0.0))


def test_honest_boundary_rule_matches_eigenvalues():
    rng = np.random.default_rng(34)
    found = 0
    while found < 200:
        p = random_params(rng)
        rep = report_of(p, cm.Provenance.HONEST_BOUNDARY)
        if rep is None or rep.behavior is cm.Behavior.INDIFFERENT:
            continue
        found += 1
        v = cm.classify_equilibrium(p, rep)
        edge = p.q_inf - p.q_soc - p.lam - p.b
        if abs(edge) > 1e-9:
            want = cm.Classification.STABLE if edge < 0 else cm.Classification.UNSTABLE
            assert v.classification is want
            assert v.method is cm.Method.CLOSED_FORM


@pytest.mark.parametrize("offset, want", [
    (0.0, cm.Classification.MARGINAL),
    (0.5, cm.Classification.MARGINAL),
    (-0.5, cm.Classification.MARGINAL),
    (2.0, cm.Classification.UNSTABLE),
    (-2.0, cm.Classification.STABLE),
])
def test_honest_boundary_verdict_in_the_margin_band(offset, want):
    # edge = q_inf - q_soc - lam - b = offset * MARGIN, inside and just
    # outside the band the random check above skips.  q_soc = 0 with a
    # negative bracket puts x_bar at -inf, so the boundary is honest.
    p = make_params(q_inf=2.0 + offset * stability.MARGIN, w_H=5.0, w_C=5.5)
    v = cm.classify_equilibrium(p, report_of(p, cm.Provenance.HONEST_BOUNDARY))
    assert v.classification is want
    assert v.method is cm.Method.CLOSED_FORM
    assert dict(v.flags)["boundary_rate_negative"] is (offset < 0.0)


def test_honest_interior_always_stable():
    # Whenever the interior honest point exists, both characteristic
    # coefficients are positive and the verdict is stable.
    rng = np.random.default_rng(35)
    found = 0
    while found < 200:
        p = random_params(rng)
        reports = [
            r for r in cm.enumerate_equilibria(p)
            if r.provenance is cm.Provenance.HONEST_INTERIOR
        ]
        if not reports:
            continue
        found += 1
        v = cm.classify_equilibrium(p, reports[0])
        assert v.classification is cm.Classification.STABLE
        assert -v.trace > 0 and v.det > 0


def test_interior_rule_decides_where_the_trace_is_roundoff():
    # Rates 18 decades apart: the interior's characteristic coefficients are
    # positive (-trace = r + q_inf x_C, about 1e-8), but the numeric trace
    # carries round-off of order 1e-16 * rate_scale, about 1e-6, and reads
    # positive.  The rule decides: the point is stable.
    p = make_params(lam=0.0027, r=8e-9, b=2e9, q_soc=130.0, q_inf=3e9, w_C=2.0)
    (rep,) = [e for e in cm.enumerate_equilibria(p)
              if e.provenance is cm.Provenance.HONEST_INTERIOR]
    trace, det, parts, classification = eigen_verdict(cm.jacobian(p, rep.state, rep.strategy))
    assert classification is cm.Classification.UNSTABLE
    assert 0.0 < max(parts) <= 1e-13 * cm.rate_scale(p)
    v = cm.classify_equilibrium(p, rep)
    assert dict(v.flags)["char_coefficients_positive"]
    assert v.method is cm.Method.CLOSED_FORM
    assert v.classification is cm.Classification.STABLE
    assert (v.trace, v.det, v.eigen_real_parts) == (trace, det, parts)


# Rates 480 decades apart.  The honest boundary's exact eigenvalues are
# {-r, q_inf - q_soc - lam - b}, whose top -r = -9.5e-214 lies in the margin
# band, while trace^2 overflows and the float real parts read (-inf, +inf).
EXTREME_BOUNDARY = make_params(
    lam=6.717138235719716e220, r=9.46041493587484e-214, b=81045000631857.34,
    q_soc=5.6378526481854664e144, q_inf=2.6233904678912265e-262, w_C=40409124.227859445,
)
# Every rate near 1e-9: the corrupt root is in the sufficient band, while its
# eigenvalue real parts lie inside the absolute margin band.
NANO_CORRUPT = make_params(lam=4.116489825193569e-10, r=4.863944375996407e-09,
                           b=5.22072269168021e-10, w_C=5.681595980663214)


@pytest.mark.parametrize("p, provenance, want", [
    (EXTREME_BOUNDARY, cm.Provenance.HONEST_BOUNDARY, cm.Classification.MARGINAL),
    (NANO_CORRUPT, cm.Provenance.CORRUPT_ROOT, cm.Classification.STABLE),
], ids=["extreme-boundary", "nano-corrupt"])
def test_rule_decides_where_the_eigenvalues_read_otherwise(p, provenance, want):
    rep = report_of(p, provenance)
    *_, classification = eigen_verdict(cm.jacobian(p, rep.state, rep.strategy))
    assert classification is not want
    v = cm.classify_equilibrium(p, rep)
    assert (v.classification, v.method) == (want, cm.Method.CLOSED_FORM)


# A float rule quantity may err by up to this fraction of the sum of the
# magnitudes of its terms; the oracle leaves a verdict within it undecided.
_ROUNDING = Fraction(1, 10**12)
_MARGIN = Fraction(stability.MARGIN)
UNDECIDED = "undecided"


def _holds(gap, terms, strict=False):
    """``gap > 0`` (``>= 0`` unless strict), or None where a float evaluation
    erring by ``_ROUNDING * terms`` could read the other way."""
    if terms and abs(gap) <= _ROUNDING * terms:
        return None
    return gap > 0 if strict else gap >= 0


def _stable_where(*conditions):
    """A sufficient rule: stable where every condition holds, None (the rule
    is inconclusive) where one fails, else UNDECIDED."""
    if False in conditions:
        return None
    return UNDECIDED if None in conditions else cm.Classification.STABLE


def _band_classification(top):
    if top < -_MARGIN:
        return cm.Classification.STABLE
    return cm.Classification.UNSTABLE if top > _MARGIN else cm.Classification.MARGINAL


def _exact_verdict(p, rep):
    """The verdict of each type's exact data, from ``p`` and the report's state
    in rationals: a classification; None where the rule is inconclusive; or
    UNDECIDED where float rounding of a rule quantity could flip it.

    Corrupt root: stable inside the paper's band ``-lam q_soc / r <= q_soc -
    q_inf <= (r q_inf + (r + b)(b r + r lam + b lam)) / r^2``.  Honest
    boundary: the margin test on its eigenvalues ``{-r, q_inf - q_soc - lam -
    b}``.  Honest interior: stable where ``-trace = r + q_inf x_C`` and ``det
    = (q_inf - q_soc) x_C (r - lam + q_inf x_H)`` both exceed the margin.
    """
    lam, r, b, q_soc, q_inf = (Fraction(v) for v in (p.lam, p.r, p.b, p.q_soc, p.q_inf))
    if rep.provenance is cm.Provenance.CORRUPT_ROOT:
        diff, lower = q_soc - q_inf, -lam * q_soc / r
        upper = (r * q_inf + (r + b) * (b * r + r * lam + b * lam)) / r**2
        return _stable_where(_holds(diff - lower, q_soc + q_inf - lower),
                             _holds(upper - diff, upper + q_soc + q_inf))
    if rep.provenance is cm.Provenance.HONEST_BOUNDARY:
        edge = q_inf - q_soc - lam - b
        slack = _ROUNDING * (q_inf + q_soc + lam + b)
        low, mid, high = (_band_classification(max(-r, e))
                          for e in (edge - slack, edge, edge + slack))
        return mid if low is mid is high else UNDECIDED
    x_h, x_c = Fraction(rep.state.x_H), Fraction(rep.state.x_C)
    neg_trace = r + q_inf * x_c
    det = (q_inf - q_soc) * x_c * (r - lam + q_inf * x_h)
    det_terms = (q_inf + q_soc) * x_c * (r + lam + q_inf * x_h)
    return _stable_where(_holds(neg_trace - _MARGIN, neg_trace, strict=True),
                         _holds(det - _MARGIN, det_terms, strict=True))


# The rule's flag where the rule can be inconclusive; the boundary's always decides.
_RULE_FLAG = {cm.Provenance.CORRUPT_ROOT: "sufficient_band",
              cm.Provenance.HONEST_INTERIOR: "char_coefficients_positive"}


@settings(max_examples=300, deadline=None)
@given(p=spread_params())
@example(p=EXTREME_BOUNDARY)
@example(p=NANO_CORRUPT)
def test_verdict_is_the_rule_where_conclusive_and_the_eigenvalues_agree(p):
    try:
        reports = cm.enumerate_equilibria(p)
    except (ArithmeticError, cm.SimplexError):
        # The corrupt root search fails at some spreads, a defect of its own.
        reject()
    for rep in reports:
        v = cm.classify_equilibrium(p, rep)
        trace, det, parts, classification = eigen_verdict(
            cm.jacobian(p, rep.state, rep.strategy))
        assert (v.trace, v.det, v.eigen_real_parts) == (trace, det, parts)
        flag = _RULE_FLAG.get(rep.provenance)
        decided = flag is None or dict(v.flags)[flag]
        if not decided:
            assert (v.classification, v.method) == (classification, cm.Method.FALLBACK)
        want = _exact_verdict(p, rep)
        if want is UNDECIDED:
            continue
        if want is None:
            assert not decided
            continue
        assert (v.classification, v.method) == (want, cm.Method.CLOSED_FORM)
        # The float eigenvalues confirm the rule wherever their top lies
        # clear of the margin band by more than their round-off; an overflowed
        # trace^2 confirms nothing.
        top = max(parts)
        if math.isfinite(top) and abs(top) > stability.MARGIN + 1e-12 * cm.rate_scale(p):
            assert classification is want


_DECADE = st.floats(-6.0, 6.0)


@settings(max_examples=300, deadline=None)
@given(lam=_DECADE, r=_DECADE, b=_DECADE, q_soc=st.one_of(st.just(None), _DECADE),
       excess=st.floats(0.01, 3.0))
def test_interior_coefficients_match_jacobian(lam, r, b, q_soc, excess):
    # Rates over 12 decades.  q_inf > q_soc + b + lam keeps x_H** below 1,
    # and w_C - w_H = b / (2 r) puts the classifier bracket at -b/2, so
    # x_bar <= 0 and the honest interior point always exists.
    lam, r, b = 10.0**lam, 10.0**r, 10.0**b
    q_soc = 0.0 if q_soc is None else 10.0**q_soc
    q_inf = (q_soc + b + lam) * 10.0**excess
    p = make_params(lam=lam, r=r, b=b, q_soc=q_soc, q_inf=q_inf, w_C=1.0 + 0.5 * b / r)
    (rep,) = [e for e in cm.enumerate_equilibria(p)
              if e.provenance is cm.Provenance.HONEST_INTERIOR]
    neg_trace, det = stability._interior_coefficients(p, rep.state)
    j = cm.jacobian(p, rep.state, rep.strategy)
    scale = cm.rate_scale(p)
    # The entry the closed form drops is zero up to rounding of the rates.
    assert abs(j[1][1]) <= 1e-15 * scale
    assert abs(-(j[0][0] + j[1][1]) - neg_trace) <= 2e-15 * scale
    numeric_det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    assert abs(numeric_det - det) <= 1e-15 * (abs(j[0][0]) * scale + abs(det))
    assert neg_trace > 0.0 and det > 0.0
    v = cm.classify_equilibrium(p, rep)
    positive = dict(v.flags)["char_coefficients_positive"]
    assert positive == (neg_trace > stability.MARGIN and det > stability.MARGIN)
    if positive:
        assert (v.classification, v.method) == (cm.Classification.STABLE, cm.Method.CLOSED_FORM)
    else:
        assert v.method is cm.Method.FALLBACK
        assert v.classification is eigen_verdict(j)[3]
