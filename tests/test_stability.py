"""Jacobians, trace/determinant verdicts and the closed-form rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg import stability
from support import (
    BASELINE, THREE_EQ, fd_jacobian, make_params, random_params, random_simplex, report_of,
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
# trace/determinant verdict


def test_trace_det_hand_case():
    v = cm.trace_det_verdict(np.array([[-2.0, -1.0], [1.0, -1.0]]))
    assert v.classification is cm.Classification.STABLE
    assert v.trace == -3.0 and v.det == 3.0
    # roots of xi^2 + 3 xi + 3: complex pair with real part -1.5
    assert v.eigen_real_parts == (-1.5, -1.5)
    assert dict(v.flags)["trace_negative"] and dict(v.flags)["det_positive"]


def test_trace_det_saddle_and_source():
    saddle = cm.trace_det_verdict(np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert saddle.classification is cm.Classification.UNSTABLE
    assert saddle.det < 0
    source = cm.trace_det_verdict(np.array([[0.5, 0.0], [0.0, 0.3]]))
    assert source.classification is cm.Classification.UNSTABLE
    assert source.trace > 0 and source.det > 0


def test_trace_det_marginal_center():
    center = cm.trace_det_verdict(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert center.classification is cm.Classification.MARGINAL


def test_eigen_real_parts_match_numpy():
    rng = np.random.default_rng(32)
    for _ in range(300):
        m = rng.normal(size=(2, 2)) * 3.0
        v = cm.trace_det_verdict(m)
        expected = sorted(np.linalg.eigvals(m).real)
        assert np.allclose(sorted(v.eigen_real_parts), expected, atol=1e-9)
        if v.classification is cm.Classification.STABLE:
            assert max(expected) < 0
        if max(expected) > 1e-6:
            assert v.classification is cm.Classification.UNSTABLE


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
        v = cm.trace_det_verdict(cm.jacobian(p, x, cm.CORRUPT_PROFILE))
        assert v.classification is cm.Classification.STABLE


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
    # The equilibrium verdict reports exactly the trace/determinant test of
    # its Jacobian, behind the closed-form rule's one flag.
    rng = np.random.default_rng(37)
    rule_flags = {"sufficient_band", "boundary_rate_negative", "char_coefficients_positive"}
    for _ in range(200):
        p = random_params(rng)
        for rep in cm.enumerate_equilibria(p):
            v = cm.classify_equilibrium(p, rep)
            eig = cm.trace_det_verdict(cm.jacobian(p, rep.state, rep.strategy))
            assert (v.classification, v.trace, v.det, v.eigen_real_parts) == (
                eig.classification, eig.trace, eig.det, eig.eigen_real_parts)
            assert v.eigen_real_parts[0] <= v.eigen_real_parts[1]
            assert v.flags[0][0] in rule_flags and v.flags[1:] == eig.flags
            assert [name for name, _ in eig.flags] == ["trace_negative", "det_positive"]


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


def test_contradiction_beyond_roundoff_raises(monkeypatch):
    monkeypatch.setattr(stability, "_closed_form", lambda p, e: (cm.Classification.UNSTABLE, ()))
    rep = cm.enumerate_equilibria(BASELINE)[0]  # eigenvalues -1.5 +- 0.87i
    with pytest.raises(cm.StabilityContradictionError):
        cm.classify_equilibrium(BASELINE, rep)


def test_roundoff_contradiction_falls_back_to_eigenvalues():
    # Rates 18 decades apart: the interior's characteristic coefficients are
    # positive (-trace = r + q_inf x_C, about 1e-8), but the numeric trace
    # carries round-off of order 1e-16 * rate_scale, about 1e-6, and reads
    # positive.  The eigenvalues cannot confirm the rule, so they decide.
    p = make_params(lam=0.0027, r=8e-9, b=2e9, q_soc=130.0, q_inf=3e9, w_C=2.0)
    (rep,) = [e for e in cm.enumerate_equilibria(p)
              if e.provenance is cm.Provenance.HONEST_INTERIOR]
    eig = cm.trace_det_verdict(cm.jacobian(p, rep.state, rep.strategy))
    assert eig.classification is cm.Classification.UNSTABLE
    assert 0.0 < max(eig.eigen_real_parts) <= stability.ROUNDOFF * cm.rate_scale(p)
    v = cm.classify_equilibrium(p, rep)
    assert dict(v.flags)["char_coefficients_positive"]
    assert v.method is cm.Method.FALLBACK
    assert v.classification is eig.classification


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
    if v.method is cm.Method.CLOSED_FORM:
        assert positive and v.classification is cm.Classification.STABLE
    else:
        # Falls back only without the flag, or where round-off decides.
        assert not positive or abs(max(v.eigen_real_parts)) <= stability.ROUNDOFF * scale
