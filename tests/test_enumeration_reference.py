"""The one-pass enumeration gives the reports of the three constructors it replaced."""

import dataclasses
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import corruption_mfg as cm  # noqa: E402
from corruption_mfg import cli  # noqa: E402
from corruption_mfg.equilibria import (  # noqa: E402
    DEGENERATE_LEADING,
    EquilibriumReport,
    Provenance,
    q_coefficients,
)
from corruption_mfg.hjb import TIE_TOL, classifier_xbar  # noqa: E402
from corruption_mfg.model import (  # noqa: E402
    Behavior,
    CORRUPT_PROFILE,
    HONEST_PROFILE,
    ModelParams,
    PopulationState,
    StrategyProfile,
    kinetic_rhs,
    validate_params,
)
from support import THREE_EQ_CONFIG, make_params, q_at  # noqa: E402


# The enumeration as it stood before the merge into one pass, kept as the
# reference.  The edits are the interior's tie-band admission in
# honest_interior (it was ``max(x_bar, 0.0) > x_h``); the exact Q(1) for
# ``x_bar >= 1`` (it was Q at ``min(x_bar, 1.0)``); and the one
# threshold rule: every candidate's admission and tie come from
# ``best_response``'s comparisons, copied as _regime (they were ``abs(x_h -
# x_bar) <= TIE_TOL``, ``x_h* <= x_bar + TIE_TOL`` and a shortcut for
# ``x_bar > 1 + TIE_TOL``), so in the indifferent-everywhere corner the
# interior point is admitted too (it was dropped).
def _regime(threshold, x_h: float) -> Behavior:
    if threshold.indifferent_everywhere:
        return Behavior.INDIFFERENT
    if x_h < threshold.value - TIE_TOL:
        return Behavior.CORRUPT
    if x_h > threshold.value + TIE_TOL:
        return Behavior.HONEST
    return Behavior.INDIFFERENT


def _companion_x_c(p: ModelParams, x_H: float) -> float:
    return (1.0 - x_H) * p.r / (p.r + p.b + p.q_soc * x_H)


def corrupt_root(p: ModelParams) -> tuple[float, float]:
    alpha, beta, gamma = q_coefficients(p)
    if abs(alpha) <= DEGENERATE_LEADING * abs(beta):
        root = -gamma / beta
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        sign_b = 1.0 if beta >= 0.0 else -1.0
        q = -0.5 * (beta + sign_b * math.sqrt(disc))
        candidates = [c for c in (q / alpha, gamma / q) if 0.0 < c < 1.0]
        if len(candidates) != 1:
            raise ArithmeticError(f"expected one root of Q in (0,1), got {candidates}")
        root = candidates[0]
        slope = 2.0 * alpha * root + beta
        if slope != 0.0:
            polished = root - ((alpha * root + beta) * root + gamma) / slope
            if 0.0 < polished < 1.0:
                root = polished
    return root, _companion_x_c(p, root)


def honest_interior(p: ModelParams) -> tuple[float, float] | None:
    gap = p.q_inf - p.q_soc
    if gap <= 0.0:
        return None
    x_h = (p.b + p.lam) / gap
    if x_h >= 1.0:
        return None
    if _regime(classifier_xbar(p), x_h) is Behavior.CORRUPT:
        return None
    x_c = p.r * (gap - p.b - p.lam) / ((p.r + p.b) * p.q_inf + (p.lam - p.r) * p.q_soc)
    return x_h, x_c


def _report(
    p: ModelParams,
    state: PopulationState,
    behavior: Behavior,
    strategy: StrategyProfile,
    provenance: Provenance,
    x_bar: float,
    flags: tuple[tuple[str, bool], ...] = (),
    warnings: tuple[str, ...] = (),
) -> EquilibriumReport:
    residual = max(abs(v) for v in kinetic_rhs(p, state, strategy))
    return EquilibriumReport(state, behavior, strategy, provenance, q_at(p, state.x_H),
                             x_bar, residual, flags, warnings)


def honest_boundary(p: ModelParams) -> EquilibriumReport | None:
    threshold = classifier_xbar(p)
    x_bar = threshold.value
    state = PopulationState(0.0, 1.0, 0.0)
    regime = _regime(threshold, 1.0)
    if regime is Behavior.INDIFFERENT:
        return _report(
            p, state, Behavior.INDIFFERENT, HONEST_PROFILE, Provenance.HONEST_BOUNDARY,
            x_bar, flags=(("classifier_tie", True),),
            warnings=("classifier threshold ties with x_H = 1; both regimes are optimal here",),
        )
    if regime is Behavior.CORRUPT:
        return None
    return _report(p, state, Behavior.HONEST, HONEST_PROFILE, Provenance.HONEST_BOUNDARY, x_bar)


def _corrupt_report(
    p: ModelParams, x_bar: float, flag: str, warning: str | None = None
) -> EquilibriumReport:
    x_h, x_c = corrupt_root(p)
    tie = warning is not None
    return _report(
        p, PopulationState(1.0 - x_h - x_c, x_h, x_c),
        Behavior.INDIFFERENT if tie else Behavior.CORRUPT,
        CORRUPT_PROFILE, Provenance.CORRUPT_ROOT, x_bar,
        flags=((flag, tie),), warnings=(warning,) if tie else (),
    )


def reference_enumeration(p: ModelParams) -> list[EquilibriumReport]:
    validate_params(p)
    threshold = classifier_xbar(p)
    x_bar = threshold.value
    reports: list[EquilibriumReport] = []

    if threshold.indifferent_everywhere:
        reports.append(
            _corrupt_report(
                p, x_bar, "indifferent_everywhere",
                "regimes tie at every x (q_soc = 0 with zero bracket)",
            )
        )
    elif x_bar > 0.0:
        q_at_bar = p.lam * (p.q_soc + p.r + p.b) if x_bar >= 1.0 else q_at(p, x_bar)
        x_h_star, _ = corrupt_root(p)
        regime = _regime(threshold, x_h_star)
        if regime is not Behavior.INDIFFERENT and (q_at_bar >= 0.0) != (
                regime is Behavior.CORRUPT):
            raise ArithmeticError(
                "admissibility checks disagree: "
                f"Q(x_bar)={q_at_bar!r} vs x_H*={x_h_star!r}, x_bar={x_bar!r}"
            )
        if regime is not Behavior.HONEST:
            reports.append(
                _corrupt_report(
                    p, x_bar, "classifier_tie",
                    "corrupt root sits on the classifier boundary; both regimes are optimal here"
                    if regime is Behavior.INDIFFERENT else None,
                )
            )

    boundary = honest_boundary(p)
    if boundary is not None:
        reports.append(boundary)

    interior = honest_interior(p)
    if interior is not None:
        x_h, x_c = interior
        tie = _regime(threshold, x_h) is Behavior.INDIFFERENT
        reports.append(
            _report(
                p,
                PopulationState(1.0 - x_h - x_c, x_h, x_c),
                Behavior.INDIFFERENT if tie else Behavior.HONEST,
                HONEST_PROFILE,
                Provenance.HONEST_INTERIOR,
                x_bar,
                flags=(("classifier_tie", tie),),
                warnings=(
                    ("interior honest point sits on the classifier boundary",) if tie else ()
                ),
            )
        )

    reports.sort(key=lambda rep: rep.state.x_H)
    return reports


def _outcome(enumerate_fn, p):
    try:
        return repr(enumerate_fn(p))
    except Exception as exc:  # the exception is part of the compared outcome
        return f"{type(exc).__name__}: {exc}"


def _tie_w_C(kw, x_bar):
    # The corrupt wage that puts the threshold at x_bar; with q_soc = 0 it
    # zeroes the classifier bracket instead.
    return kw["w_H"] + (x_bar * kw["q_soc"] + kw["b"]) * (
        kw["w_H"] - kw["w_R"] + kw["r"] * kw["f"]) / kw["r"]


# Rates and wage gaps spread over a span of 2 to 32 decades.
_RATES = st.floats(2.0, 32.0).flatmap(
    lambda span: st.lists(st.floats(-span / 2, span / 2).map(lambda e: 10.0**e),
                          min_size=9, max_size=9)
)
_CORNERS = ("none", "x_bar=0", "x_bar=1", "x_bar=x_H**", "x_bar=x_H*")
_OFFSETS = [0.0, TIE_TOL, -TIE_TOL, 0.5 * TIE_TOL, -2.0 * TIE_TOL]
# Just outside the tie band, where a second form of the band could disagree.
_EDGE_OFFSETS = _OFFSETS + [1.0000000003 * TIE_TOL, -1.0000000003 * TIE_TOL]


@st.composite
def _corner_params(draw, offsets=_OFFSETS):
    # A random set, optionally with x_bar moved to a corner plus an offset.
    lam, r, b, f, q_soc, q_inf, w_R, gap_h, gap_c = draw(_RATES)
    zero_f, zero_q_soc, zero_q_inf, zero_w_R = draw(st.lists(st.booleans(), min_size=4,
                                                             max_size=4))
    corner = draw(st.sampled_from(_CORNERS))
    offset = draw(st.sampled_from(offsets))
    ulps = draw(st.integers(-2, 2))
    kw = dict(lam=lam, r=r, b=b, f=0.0 if zero_f else f, q_soc=0.0 if zero_q_soc else q_soc,
              q_inf=0.0 if zero_q_inf else q_inf, w_R=0.0 if zero_w_R else w_R)
    kw["w_H"] = kw["w_R"] + gap_h
    kw["w_C"] = kw["w_H"] + gap_c
    target = {"x_bar=0": 0.0, "x_bar=1": 1.0}.get(corner)
    if corner == "x_bar=x_H**" and kw["q_inf"] > kw["q_soc"]:
        target = (kw["b"] + kw["lam"]) / (kw["q_inf"] - kw["q_soc"])
    if corner == "x_bar=x_H*":
        try:
            target = corrupt_root(make_params(**kw))[0]
        except (ArithmeticError, ValueError):
            target = None
    if target is not None:
        w_C = _tie_w_C(kw, target + offset)
        for _ in range(abs(ulps)):
            w_C = math.nextafter(w_C, math.copysign(math.inf, ulps))
        kw["w_C"] = w_C
    return make_params(**kw)


@settings(max_examples=400, deadline=None)
@given(p=_corner_params())
def test_enumeration_matches_the_three_constructors(p):
    assert _outcome(cm.enumerate_equilibria, p) == _outcome(reference_enumeration, p)


# Sets found at the edge of the tie band, where one form of the band once
# admitted a point and another flagged its tie: an honest interior point
# x_bar - x_H** = 1.0000000003e-9 below the threshold, reported honest and
# untied, and a corrupt root as far above it, which raised "admissibility
# checks disagree".
_EDGE_SETS = [
    make_params(lam=23073.797454516913, r=0.017092647612227188, b=4.845537925102861e-09,
                q_soc=13.767552380139369, q_inf=5000071.449518929, w_R=1.602301768450197e-07,
                w_H=1.913340227172459e-05, w_C=8.965652477850952e-05),
    make_params(lam=0.24328302554051565, r=0.5475697326642243, b=0.3147943156030476,
                q_soc=43.39007952972478, q_inf=24.015209055488356, w_R=0.01506310918079311,
                w_H=81.54305879793007, w_C=3355.3743151454273),
]


@settings(max_examples=400, deadline=None)
@given(p=_corner_params(_EDGE_OFFSETS))
@example(p=_EDGE_SETS[0])
@example(p=_EDGE_SETS[1])
def test_every_report_is_the_best_response_at_its_state(p):
    try:
        reports = cm.enumerate_equilibria(p)
    except cm.ParameterError:
        reject()
    except ArithmeticError as exc:
        # The root of Q is not found at some extreme rate scales, a defect of
        # its own; nothing about ties can be checked there.
        assume("expected one root of Q" not in str(exc))
        raise
    for rep in reports:
        assert rep.behavior is cm.best_response(p, rep.state).behavior
        assert bool(rep.warnings) == (rep.behavior is cm.Behavior.INDIFFERENT)


# x_bar = 1.0000000000000877, inside the tie band of x_H = 1: the honest
# boundary is listed, indifferent, while classify once read the corrupt root
# as unique.
_ABOVE_ONE = make_params(lam=1.1321089947803766e-11, r=2.356079783654354, b=8.425797874025928,
                         q_soc=0.05400138051743457, q_inf=58302076.19514815,
                         w_R=1.1946331665040993e-09, w_H=1.7478904473180236e-09,
                         w_C=3.739126359601064e-09)
_RUN = cli.parse_config(THREE_EQ_CONFIG)


@settings(max_examples=400, deadline=None)
@given(p=_corner_params(_EDGE_OFFSETS))
@example(p=_ABOVE_ONE)
def test_classify_regime_line_agrees_with_the_enumeration(p):
    try:
        reports = cm.enumerate_equilibria(p)
    except cm.ParameterError:
        reject()
    except ArithmeticError as exc:
        assume("expected one root of Q" not in str(exc))
        raise
    listed = {rep.provenance for rep in reports}
    pieces = []
    cli.cmd_classify(dataclasses.replace(_RUN, params=p), pieces.append)
    text = "".join(pieces)
    (regime,) = [line for line in text.splitlines() if line.startswith("regime: ")]
    unique = regime == "regime: unique corrupt equilibrium"
    assert unique == (Provenance.HONEST_BOUNDARY not in listed)
    if regime.startswith("regime: corrupt equilibrium impossible"):
        assert Provenance.CORRUPT_ROOT not in listed


# Rates over about 20 decades, where the corrupt root rounds onto x_H = 1:
# the report's Q value is taken at the clamped state, not at the raw root.
@pytest.mark.parametrize("kw", [
    dict(lam=3.856266586519596e-11, r=50033405.30345697, b=391828199739.4547,
         q_soc=5.823912934230625e-05, w_R=8.509372049268326e-14, w_H=357606234344.7427,
         w_C=2800890693460065.5),
    dict(lam=1.6298512389800823e-13, r=100035091.5571814, b=7633452574.650776,
         q_soc=5.698965814037954e-06, w_R=1.0626743915656178e-07, w_H=1.8387219043618423e-05,
         w_C=0.0014133654703743419),
])
def test_enumeration_matches_where_the_root_rounds_onto_one(kw):
    p = make_params(**kw)
    assert _outcome(cm.enumerate_equilibria, p) == _outcome(reference_enumeration, p)
