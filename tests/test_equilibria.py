"""The quadratic Q, the corrupt root and the enumeration of equilibria."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corruption_mfg as cm
from corruption_mfg import equilibria
from support import (
    BASELINE,
    THREE_EQ,
    bisect_root,
    make_params,
    max_rhs,
    q_at,
    random_params,
    report_of,
)
from strategies import spread_params

INTERIOR = cm.Provenance.HONEST_INTERIOR
BOUNDARY = cm.Provenance.HONEST_BOUNDARY


# ---------------------------------------------------------------------------
# the quadratic Q


def test_q_hand_coefficients():
    assert cm.q_coefficients(BASELINE) == (0.0, 3.0, -1.0)
    assert q_at(BASELINE, 1 / 3) == pytest.approx(0.0, abs=1e-15)
    p = make_params(q_soc=1.0, q_inf=2.0)
    assert cm.q_coefficients(p) == (0.0, 4.0, -1.0)  # degenerate to linear
    p3 = THREE_EQ
    alpha, beta, gamma = cm.q_coefficients(p3)
    assert alpha == pytest.approx(-1.45, abs=1e-15)
    assert beta == pytest.approx(1.82, abs=1e-15)
    assert gamma == pytest.approx(-0.2, abs=1e-15)


def test_q_sign_structure():
    rng = np.random.default_rng(20)
    for _ in range(500):
        p = random_params(rng)
        assert q_at(p, 0.0) == pytest.approx(-p.r * p.b, abs=0)
        assert q_at(p, 0.0) < 0
        q1 = q_at(p, 1.0)
        assert q1 > 0
        assert q1 == pytest.approx(p.lam * (p.q_soc + p.r + p.b), rel=1e-12)


# ---------------------------------------------------------------------------
# corrupt root


def test_corrupt_root_interaction_free():
    x_h, x_c = cm.corrupt_root(BASELINE)
    assert x_h == pytest.approx(1 / 3, abs=1e-15)
    assert x_c == pytest.approx(1 / 3, abs=1e-15)


def test_corrupt_root_linear_degenerate():
    x_h, _ = cm.corrupt_root(make_params(q_soc=1.0, q_inf=2.0))
    assert x_h == pytest.approx(0.25, abs=1e-15)


def test_corrupt_root_against_bisection():
    x_h, _ = cm.corrupt_root(THREE_EQ)
    oracle = bisect_root(lambda t: q_at(THREE_EQ, t), 0.0, 1.0, tol=1e-13)
    assert abs(x_h - oracle) <= 1e-10
    assert x_h == pytest.approx(0.12168759, abs=1e-6)

    rng = np.random.default_rng(21)
    for _ in range(200):
        p = random_params(rng)
        x_h, x_c = cm.corrupt_root(p)
        oracle = bisect_root(lambda t: q_at(p, t), 0.0, 1.0, tol=1e-13)
        assert abs(x_h - oracle) <= 1e-10


def test_corrupt_root_bounds_and_residual():
    rng = np.random.default_rng(22)
    for _ in range(500):
        p = random_params(rng)
        x_h, x_c = cm.corrupt_root(p)
        assert 0.0 < x_h < 1.0
        assert 0.0 < x_c < 1.0
        assert x_h + x_c < 1.0
        coeff_scale = max(abs(c) for c in cm.q_coefficients(p))
        assert abs(q_at(p, x_h)) <= 1e-12 * coeff_scale


def test_polished_root_on_arrays_is_the_scalar_root():
    # 2,000 sets whose five rates are log-uniform over spans of 2 to 64
    # decades around 1 (q_soc and q_inf zero at times), as one array set
    # through _polished_root with np.sqrt and np.where, against corrupt_root
    # on each set: the same bits wherever it returns, and single false
    # exactly where it raises.  Degenerate sets take the linear root instead.
    rng = np.random.default_rng(20261020)
    n = 2000
    span = rng.uniform(2.0, 64.0, (n, 1))
    lam, r, b, q_soc, q_inf = 10.0 ** (span * rng.uniform(-0.5, 0.5, (n, 5))).T
    q_soc[rng.random(n) < 0.15] = 0.0
    q_inf[rng.random(n) < 0.15] = 0.0
    grid = make_params(lam=lam, r=r, b=b, q_soc=q_soc, q_inf=q_inf)
    coefficients = cm.q_coefficients(grid)
    with np.errstate(all="ignore"):
        roots, single = equilibria._polished_root(coefficients, np.sqrt, np.where)
    scalar = []
    for values in zip(lam.tolist(), r.tolist(), b.tolist(), q_soc.tolist(), q_inf.tolist()):
        p = make_params(**dict(zip(("lam", "r", "b", "q_soc", "q_inf"), values)))
        try:
            scalar.append(cm.corrupt_root(p)[0])
        except ArithmeticError:
            scalar.append(None)
    kept = ~equilibria._degenerate(*coefficients[:2])
    returned = np.array([root is not None for root in scalar])
    assert kept.sum() > 1500 and 0 < (kept & ~returned).sum() < 500
    assert (single[kept] == returned[kept]).all()
    want = np.array([0.0 if root is None else root for root in scalar])
    same = want.view(np.uint64) == roots.view(np.uint64)
    assert same[kept & returned].all()


# ---------------------------------------------------------------------------
# honest interior point, read from the enumeration


def test_honest_interior_hand_value():
    p = make_params(lam=0.1, r=1.0, b=0.2, q_soc=0.5, q_inf=1.0, w_C=1.1)
    # x_bar = 2 * (0.1 - 0.2) < 0, gap = 0.5: point = (0.3/0.5, 0.2/0.75)
    rep = report_of(p, INTERIOR)
    assert rep is not None
    assert rep.state.x_H == pytest.approx(0.6, abs=1e-15)
    assert rep.state.x_C == pytest.approx(0.2 / 0.75, abs=1e-15)


def test_honest_interior_absent_without_dominant_infection():
    assert report_of(make_params(q_soc=2.0, q_inf=2.0, w_C=1.5), INTERIOR) is None
    assert report_of(make_params(q_soc=3.0, q_inf=1.0, w_C=1.5), INTERIOR) is None


def test_honest_interior_absent_when_ratio_exceeds_one():
    # gap = 0.5 but (b + lam) / gap = 2.2 >= 1
    assert report_of(make_params(q_soc=0.5, q_inf=1.0, w_C=1.5), INTERIOR) is None


def test_honest_interior_absent_when_threshold_exceeds_it():
    # Same kinetics as the three-equilibria set but a higher corrupt wage
    # pushes x_bar = 0.25 above the candidate point 0.2.
    p = make_params(lam=0.1, r=1.0, b=0.2, q_soc=0.5, q_inf=2.0, w_C=1.325)
    assert cm.classifier_xbar(p).value == pytest.approx(0.25, abs=1e-12)
    assert report_of(p, INTERIOR) is None


def test_honest_interior_matches_companion_relation():
    # x_C** must also satisfy the shared fixed-point relation
    # x_C = (1 - x_H) r / (r + b + q_soc x_H).
    rng = np.random.default_rng(23)
    found = 0
    while found < 100:
        p = random_params(rng)
        rep = report_of(p, INTERIOR)
        if rep is None:
            continue
        found += 1
        x_h, x_c = rep.state.x_H, rep.state.x_C
        expected = (1.0 - x_h) * p.r / (p.r + p.b + p.q_soc * x_h)
        assert abs(x_c - expected) <= 1e-12


# ---------------------------------------------------------------------------
# honest boundary, read from the enumeration


def test_honest_boundary_present_for_low_threshold():
    p = make_params(q_soc=1.0, f=1.0, w_H=5.0)  # x_bar = -1/6
    rep = report_of(p, BOUNDARY)
    assert rep is not None
    assert rep.state.as_tuple() == (0.0, 1.0, 0.0)
    assert rep.behavior is cm.Behavior.HONEST
    assert rep.residual == 0.0


def test_honest_boundary_absent_for_high_threshold():
    assert report_of(make_params(q_soc=1.0), BOUNDARY) is None  # x_bar = 8
    assert report_of(BASELINE, BOUNDARY) is None  # x_bar = +inf


def test_honest_boundary_tie():
    p = make_params(q_soc=1.0, w_C=3.0)  # x_bar = 1 exactly
    rep = report_of(p, BOUNDARY)
    assert rep is not None
    assert rep.behavior is cm.Behavior.INDIFFERENT
    assert rep.warnings


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_unique_corrupt():
    reports = cm.enumerate_equilibria(BASELINE)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.provenance is cm.Provenance.CORRUPT_ROOT
    assert rep.behavior is cm.Behavior.CORRUPT
    assert rep.state.x_H == pytest.approx(1 / 3, abs=1e-12)
    assert rep.residual <= 1e-9


def test_enumerate_three_equilibria_ordering():
    # Independent oracles: threshold by hand, root by bisection, interior by hand.
    p = THREE_EQ
    x_bar = (1.0 / 0.5) * (1.0 * 0.275 / 1.0 - 0.2)
    assert x_bar == pytest.approx(0.15, abs=1e-12)
    assert q_at(p, 0.15) > 0
    root_oracle = bisect_root(lambda t: q_at(p, t), 0.0, 1.0, tol=1e-13)
    interior_oracle = (0.2 + 0.1) / (2.0 - 0.5)

    reports = cm.enumerate_equilibria(p)
    assert [rep.provenance for rep in reports] == [
        cm.Provenance.CORRUPT_ROOT,
        cm.Provenance.HONEST_INTERIOR,
        cm.Provenance.HONEST_BOUNDARY,
    ]
    xs = [rep.state.x_H for rep in reports]
    assert xs[0] == pytest.approx(root_oracle, abs=1e-10)
    assert xs[1] == pytest.approx(interior_oracle, abs=1e-12)
    assert xs[2] == 1.0
    assert 0.0 < xs[0] < x_bar < xs[1] < 1.0
    assert [rep.behavior for rep in reports] == [
        cm.Behavior.CORRUPT,
        cm.Behavior.HONEST,
        cm.Behavior.HONEST,
    ]


def test_enumerate_unique_honest_boundary():
    # x_bar < 0 and no dominant infection: only the boundary survives.
    p = make_params(f=1.0, q_soc=1.0, q_inf=0.0, w_H=5.0, w_C=5.5)
    reports = cm.enumerate_equilibria(p)
    assert len(reports) == 1
    assert reports[0].provenance is cm.Provenance.HONEST_BOUNDARY
    assert reports[0].state.x_H == 1.0


def test_enumerate_properties_random():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        p = random_params(rng)
        reports = cm.enumerate_equilibria(p)
        assert 1 <= len(reports) <= 3
        assert [r.state.x_H for r in reports] == sorted(r.state.x_H for r in reports)
        for rep in reports:
            assert max_rhs(p, rep.state, rep.strategy) <= 1e-9
            assert cm.best_response(p, rep.state).behavior is rep.behavior


def test_enumerate_admits_interior_point_on_the_threshold():
    # THREE_EQ with w_C = 1.3: x_bar = x_H** = 0.2 exactly, but in floats
    # x_bar = 0.20000000000000007 lies above x_H** = 0.20000000000000004 by
    # round-off, well inside the tie band, which admits the interior point
    # as it admits the corrupt root and the boundary.
    p = make_params(lam=0.1, r=1.0, b=0.2, q_soc=0.5, q_inf=2.0, w_C=1.3)
    x_bar = cm.classifier_xbar(p).value
    assert x_bar > 0.2
    reports = cm.enumerate_equilibria(p)
    assert [rep.provenance for rep in reports] == [cm.Provenance.CORRUPT_ROOT, INTERIOR, BOUNDARY]
    rep = reports[1]
    assert rep.state.x_H == pytest.approx(0.2, abs=1e-15) and rep.state.x_H < x_bar
    assert rep.behavior is cm.Behavior.INDIFFERENT
    assert dict(rep.flags)["classifier_tie"] and rep.warnings
    assert cm.best_response(p, rep.state).behavior is cm.Behavior.INDIFFERENT
    assert max_rhs(p, rep.state, rep.strategy) <= 1e-15


def test_enumerate_takes_q_at_one_exactly_above_the_threshold():
    # x_bar = 1.0000000000000877 is inside the tie band above 1.  There Q
    # evaluated as alpha + beta + gamma cancels to -2.6e-9, although Q(1) =
    # lam (q_soc + r + b) = 1.2e-10 > 0 exactly; admission compares x_H* with
    # x_bar, so the cancelled value cannot drop the root.
    p = make_params(
        lam=1.1321089947803766e-11, r=2.356079783654354, b=8.425797874025928,
        q_soc=0.05400138051743457, q_inf=58302076.19514815, w_R=1.1946331665040993e-09,
        w_H=1.7478904473180236e-09, w_C=3.739126359601064e-09,
    )
    x_bar = cm.classifier_xbar(p).value
    assert 1.0 < x_bar <= 1.0 + cm.TIE_TOL
    assert q_at(p, 1.0) < 0.0 < p.lam * (p.q_soc + p.r + p.b)
    reports = cm.enumerate_equilibria(p)
    assert [rep.provenance for rep in reports] == [cm.Provenance.CORRUPT_ROOT, BOUNDARY]
    assert [rep.behavior for rep in reports] == [cm.Behavior.CORRUPT, cm.Behavior.INDIFFERENT]
    for rep in reports:
        assert cm.best_response(p, rep.state).behavior is rep.behavior


def test_enumerate_computes_threshold_once_and_root_at_most_once(monkeypatch):
    calls = {"classifier_xbar": 0, "q_coefficients": 0, "_corrupt_root": 0}

    def counted(name):
        inner = getattr(equilibria, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(equilibria, name, counted(name))
    rng = np.random.default_rng(26)
    corners = [
        BASELINE, THREE_EQ,
        make_params(q_soc=1.0, w_C=3.0),  # x_bar = 1
        make_params(w_C=2.0),  # indifferent everywhere
        make_params(f=1.0, q_soc=1.0, q_inf=0.0, w_H=5.0, w_C=5.5),  # x_bar < 0
        make_params(lam=0.1, r=1.0, b=0.2, q_soc=0.5, q_inf=2.0, w_C=1.3),  # x_bar = x_H**
    ]
    for p in corners + [random_params(rng) for _ in range(200)]:
        for name in calls:
            calls[name] = 0
        cm.enumerate_equilibria(p)
        assert calls["classifier_xbar"] == 1
        assert calls["q_coefficients"] == 1
        assert calls["_corrupt_root"] <= 1


def test_enumerate_rejects_invalid_params():
    with pytest.raises(cm.ParameterError):
        cm.enumerate_equilibria(make_params(w_C=0.5))


# ---------------------------------------------------------------------------
# interaction-free case (q_soc = q_inf = 0): a single wage/fine inequality
# w_C - w_R >= b f + (w_H - w_R)(1 + b/r) picks the corrupt point
# x_H* = r b / (lam r + lam b + r b), x_C* = r (1 - x_H*) / (r + b), or the
# honest boundary.


def test_no_interaction_corrupt_case():
    reports = cm.enumerate_equilibria(BASELINE)  # 10 >= 0 + 1*2
    assert len(reports) == 1
    rep = reports[0]
    assert rep.behavior is cm.Behavior.CORRUPT
    assert rep.provenance is cm.Provenance.CORRUPT_ROOT
    for got, want in zip(rep.state.as_tuple(), (1 / 3, 1 / 3, 1 / 3)):
        assert got == pytest.approx(want, abs=1e-12)


def test_no_interaction_honest_case():
    reports = cm.enumerate_equilibria(make_params(w_H=5.0, w_C=5.5))  # 5.5 < 10
    assert len(reports) == 1
    assert reports[0].behavior is cm.Behavior.HONEST
    assert reports[0].state.as_tuple() == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("p", [
    BASELINE,  # q_inf = q_soc: x_H** and x_C** would divide by zero
    make_params(lam=1e-30, r=1e-30, b=1e-30, q_inf=1e-300, w_C=3.0),
], ids=["no_gap", "x_h_above_one"])
def test_enumeration_forms_no_interior_point_that_does_not_exist(p):
    # On floats the interior point is formed only where it exists.  In the
    # second set x_H** >= 1, and x_C**'s denominator (r + b) q_inf underflows
    # to 0, so forming it would raise ZeroDivisionError.
    reports = cm.enumerate_equilibria(p)
    assert [rep.provenance for rep in reports] == [cm.Provenance.CORRUPT_ROOT]


def test_enumeration_forms_no_corrupt_root_where_x_bar_is_not_positive(monkeypatch):
    def no_root(*args):
        raise AssertionError("corrupt root formed where x_bar <= 0")

    monkeypatch.setattr(equilibria, "_corrupt_root", no_root)
    p = make_params(q_soc=1.0, f=1.0, w_H=5.0)  # x_bar = -1/6
    assert [rep.provenance for rep in cm.enumerate_equilibria(p)] == [BOUNDARY]


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, allow_infinity=False, exclude_min=True),
       st.floats(0.0, allow_infinity=False, exclude_min=True))
def test_numerator_below_denominator_is_quotient_below_one(a, g):
    # _candidates tests x_H** = (b + lam) / (q_inf - q_soc) < 1 as b + lam <
    # q_inf - q_soc: for positive floats the rounded quotient is below 1
    # exactly where the numerator is below the denominator.
    assert (a / g < 1.0) == (a < g)


# Rates over ~20 decades with x_bar inside the tie band of x_H**, where both
# the root and the interior point are listed and the root's float x_H comes
# out one ulp above the interior's, 0.10099783289725528.
_ROOT_ABOVE_INTERIOR_IN_FLOATS = make_params(
    lam=1.1059716759690376e-12, r=248315.4889695256, b=798828859.4678285, q_soc=3.9860594015555573,
    q_inf=7909366339.405099, w_C=3217.991671302662)


@settings(max_examples=200, deadline=None)
@given(spread_params())
@example(THREE_EQ)
@example(_ROOT_ABOVE_INTERIOR_IN_FLOATS)
def test_corrupt_root_lies_below_the_interior_point_and_is_listed_first(p):
    # Exactly, from the float inputs: Q(0) = -r b < 0 < Q(1), so Q has one
    # root in (0, 1), and where x_H** = (b + lam) / (q_inf - q_soc) < 1,
    # Q(x_H**) = lam (q_soc x_H**^2 + b x_H** + r) > 0 puts that root below
    # x_H**.  Q's coefficients are written here, not taken from the package.
    lam, r, b, q_soc, q_inf = map(Fraction, (p.lam, p.r, p.b, p.q_soc, p.q_inf))
    alpha = (r + lam) * q_soc - r * q_inf
    beta = r * (q_inf - q_soc) + lam * r + lam * b + r * b
    gamma = -r * b

    def q(x):
        return (alpha * x + beta) * x + gamma

    assert q(0) < 0 < q(1)
    if b + lam < q_inf - q_soc:
        x = (b + lam) / (q_inf - q_soc)
        assert 0 < x < 1 and q(x) == lam * (q_soc * x * x + b * x + r) > 0
    try:
        reports = cm.enumerate_equilibria(p)
    except (ArithmeticError, cm.SimplexError):
        return  # some valid sets fail at extreme scales (ROADMAP item 16)
    # THREE_EQ and the set above list all three, whatever the draws list.
    listing = [cm.Provenance.CORRUPT_ROOT, INTERIOR, BOUNDARY]
    order = [rep.provenance for rep in reports]
    assert order == sorted(order, key=listing.index)


def test_no_interaction_tie():
    # Exactly w_C = b f + 2: both regimes are optimal everywhere, so the
    # corrupt point and the honest boundary are both reported indifferent.
    reports = cm.enumerate_equilibria(make_params(w_C=2.0))
    assert [r.provenance for r in reports] == [
        cm.Provenance.CORRUPT_ROOT, cm.Provenance.HONEST_BOUNDARY
    ]
    for rep in reports:
        assert rep.behavior is cm.Behavior.INDIFFERENT
        assert rep.warnings
    assert dict(reports[0].flags)["indifferent_everywhere"]
    for got, want in zip(reports[0].state.as_tuple(), (1 / 3, 1 / 3, 1 / 3)):
        assert got == pytest.approx(want, abs=1e-12)


def test_no_interaction_agrees_with_enumeration():
    rng = np.random.default_rng(25)
    for _ in range(300):
        p = random_params(rng, zero_q=True)
        margin = (p.w_C - p.w_R) - (p.b * p.f + (p.w_H - p.w_R) * (1.0 + p.b / p.r))
        if abs(margin) <= 1e-9:
            continue
        reports = cm.enumerate_equilibria(p)
        assert len(reports) == 1
        rep = reports[0]
        if margin > 0:
            x_h = p.r * p.b / (p.lam * p.r + p.lam * p.b + p.r * p.b)
            x_c = p.r * (1.0 - x_h) / (p.r + p.b)
            assert rep.behavior is cm.Behavior.CORRUPT
            assert rep.state.x_H == pytest.approx(x_h, abs=1e-12)
            assert rep.state.x_C == pytest.approx(x_c, abs=1e-12)
        else:
            assert rep.behavior is cm.Behavior.HONEST
            assert rep.state.as_tuple() == (0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# brute-force grid oracle


@pytest.mark.parametrize(
    "p",
    [
        BASELINE,
        THREE_EQ,
        make_params(f=1.0, q_soc=1.0, q_inf=0.0, w_H=5.0, w_C=5.5),
    ],
    ids=["interaction_free", "three_equilibria", "honest_only"],
)
def test_grid_oracle_equivalence(p):
    """Exhaustive scan of the simplex: every near-fixed, regime-consistent
    grid point sits next to a returned equilibrium, and each returned
    equilibrium is reachable by the same filter."""
    reports = cm.enumerate_equilibria(p)
    scale = cm.rate_scale(p)
    n = 200
    grid = np.arange(n + 1) / n
    cutoff = 0.0025 * scale
    pairs = [(cm.CORRUPT_PROFILE, cm.Behavior.CORRUPT), (cm.HONEST_PROFILE, cm.Behavior.HONEST)]
    matched = {id(rep): False for rep in reports}
    for profile, behavior in pairs:
        for x_h in grid:
            for x_c in grid:
                if x_h + x_c > 1.0:
                    continue
                x = cm.PopulationState(1.0 - x_h - x_c, float(x_h), float(x_c))
                if max_rhs(p, x, profile) > cutoff:
                    continue
                resp = cm.best_response(p, x)
                if resp.behavior is not cm.Behavior.INDIFFERENT and resp.behavior is not behavior:
                    continue
                dists = {
                    id(rep): max(abs(x.x_H - rep.state.x_H), abs(x.x_C - rep.state.x_C))
                    for rep in reports
                    if rep.strategy == profile or rep.behavior is cm.Behavior.INDIFFERENT
                }
                assert dists, "filtered grid point with no candidate equilibrium"
                best = min(dists, key=dists.get)
                assert dists[best] <= 0.025
                matched[best] = True
    assert all(matched.values()), "an equilibrium was never found by the grid scan"
