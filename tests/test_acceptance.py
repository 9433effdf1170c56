"""Acceptance suite: one test per release criterion, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured runtime.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import corruption_mfg as cm
from corruption_mfg import cli
from support import (
    BASELINE,
    THREE_EQ,
    bisect_root,
    eigen_verdict,
    fd_jacobian,
    max_rhs,
    moderate_params,
    q_at,
    random_params,
    random_simplex,
)

THIRDS = cm.PopulationState(1 / 3, 1 / 3, 1 / 3)


def report(num, elapsed, bound, description):
    assert elapsed < bound, f"criterion {num}: {elapsed:.3f}s exceeded {bound}s"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed * 1e3:.2f} ms <= {bound * 1e3:g} ms): {description}")


def test_criterion_01_interaction_free_baseline():
    # The median of 21 timed calls, so one slow call on a busy host does
    # not decide the bound.
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        reports = cm.enumerate_equilibria(BASELINE)
        verdict = cm.classify_equilibrium(BASELINE, reports[0])
        times.append(time.perf_counter() - t0)
    elapsed = sorted(times)[10]

    assert len(reports) == 1
    rep = reports[0]
    assert rep.behavior is cm.Behavior.CORRUPT
    for got, want in zip(rep.state.as_tuple(), (1 / 3, 1 / 3, 1 / 3)):
        assert abs(got - want) <= 1e-12
    assert verdict.classification is cm.Classification.STABLE
    report(1, elapsed, 1e-3, "unique corrupt equilibrium at (1/3, 1/3, 1/3), stable")


def test_criterion_02_regime_classifier_equivalence():
    rng = np.random.default_rng(101)
    cases = [(random_params(rng), random_simplex(rng)) for _ in range(10_000)]
    violations = 0
    t0 = time.perf_counter()
    for p, x in cases:
        x_bar = cm.classifier_xbar(p).value
        if abs(x.x_H - x_bar) <= cm.TIE_TOL:
            continue
        sol = cm.solve_regime(p, x, cm.CORRUPT_PROFILE)
        if (sol.g_C > sol.g_H) != (x.x_H < x_bar):
            violations += 1
    elapsed = time.perf_counter() - t0

    assert violations == 0
    report(2, elapsed, 1.0, "g_C - g_H sign matches x_bar - x_H on 10^4 random cases")


def test_criterion_03_fixed_point_property():
    rng = np.random.default_rng(102)
    params = [random_params(rng) for _ in range(10_000)]
    t0 = time.perf_counter()
    counts = set()
    for p in params:
        reports = cm.enumerate_equilibria(p)
        counts.add(len(reports))
        for rep in reports:
            assert max_rhs(p, rep.state, rep.strategy) <= 1e-9
            assert cm.best_response(p, rep.state).behavior is rep.behavior
    elapsed = time.perf_counter() - t0

    assert counts <= {1, 2, 3}
    report(3, elapsed, 10.0, f"10^4 random sets: residuals <= 1e-9, counts in {sorted(counts)}")


def test_criterion_04_three_equilibria_scenario():
    p = THREE_EQ
    cm.enumerate_equilibria(p)  # warm
    t0 = time.perf_counter()
    reports = cm.enumerate_equilibria(p)
    verdicts = [cm.classify_equilibrium(p, rep) for rep in reports]
    elapsed = time.perf_counter() - t0

    assert len(reports) == 3
    x_bar = cm.classifier_xbar(p).value
    assert x_bar == pytest.approx(0.15, abs=1e-12)
    root_oracle = bisect_root(lambda t: q_at(p, t), 0.0, 1.0, tol=1e-13)
    xs = [rep.state.x_H for rep in reports]
    assert abs(xs[0] - root_oracle) <= 1e-10
    assert xs[1] == pytest.approx(0.2, abs=1e-12)
    assert xs[2] == 1.0
    assert 0.0 < xs[0] < x_bar < xs[1] < 1.0

    corrupt, interior, boundary = verdicts
    assert not cm.corrupt_stability_band(p)  # sufficient test inconclusive
    assert corrupt.method is cm.Method.FALLBACK
    assert interior.classification is cm.Classification.STABLE
    assert boundary.classification is cm.Classification.UNSTABLE
    report(4, elapsed, 1e-2, "three equilibria ordered around x_bar = 0.15, verdicts as expected")


def test_criterion_05_sufficient_band_implies_stable():
    rng = np.random.default_rng(103)
    params = []
    while len(params) < 1000:
        p = random_params(rng)
        if cm.corrupt_stability_band(p):
            params.append(p)
    t0 = time.perf_counter()
    stable = 0
    for p in params:
        x_h, x_c = cm.corrupt_root(p)
        x = cm.PopulationState(1.0 - x_h - x_c, x_h, x_c)
        *_, classification = eigen_verdict(cm.jacobian(p, x, cm.CORRUPT_PROFILE))
        stable += classification is cm.Classification.STABLE
    elapsed = time.perf_counter() - t0

    assert stable == len(params)
    report(5, elapsed, 5.0, "eigenvalue verdict stable for 1000/1000 in-band parameter sets")


def test_criterion_06_jacobian_against_finite_differences():
    rng = np.random.default_rng(104)
    triples = [
        (random_params(rng), random_simplex(rng, margin=1e-5), cm.ALL_PROFILES[i % 4])
        for i in range(1000)
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for p, x, s in triples:
        diff = np.max(np.abs(cm.jacobian(p, x, s) - fd_jacobian(p, x, s)))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-6
    report(6, elapsed, 1.0, f"analytic vs central-difference Jacobian, worst {worst:.2e}")


def _perturbations(state, rng, count=20, magnitude=1e-3):
    out = []
    while len(out) < count:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        d_h, d_c = magnitude * math.cos(angle), magnitude * math.sin(angle)
        x_r = state.x_R - d_h - d_c
        x_h = state.x_H + d_h
        x_c = state.x_C + d_c
        if min(x_r, x_h, x_c) >= 0.0:
            out.append(cm.PopulationState(x_r, x_h, x_c))
    return out


def test_criterion_07_flow_corroborates_verdicts():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()

    stable_targets = [(BASELINE, cm.enumerate_equilibria(BASELINE)[0])]
    three = cm.enumerate_equilibria(THREE_EQ)
    stable_targets += [(THREE_EQ, three[0]), (THREE_EQ, three[1])]
    for p, rep in stable_targets:
        for x_start in _perturbations(rep.state, rng):
            traj = cm.integrate_ode(p, x_start, rep.strategy, 200.0, 0.01)
            final = cm.PopulationState(*traj.states[-1])
            dist = max(abs(a - b) for a, b in zip(final.as_tuple(), rep.state.as_tuple()))
            assert dist <= 1e-6

    boundary = three[2]
    assert cm.classify_equilibrium(THREE_EQ, boundary).classification is cm.Classification.UNSTABLE
    escaped = 0
    for x_start in _perturbations(boundary.state, rng):
        traj = cm.integrate_ode(THREE_EQ, x_start, boundary.strategy, 200.0, 0.01)
        excursion = np.max(np.abs(traj.states - np.array(boundary.state.as_tuple())))
        escaped += excursion > 1e-2
    assert escaped >= 1
    elapsed = time.perf_counter() - t0
    report(7, elapsed, 30.0, "stable points reabsorb 1e-3 kicks; unstable boundary ejects")


def test_criterion_08_law_of_large_numbers():
    t0 = time.perf_counter()
    d_large, _ = cm.lln_convergence(THREE_EQ, 10_000, THIRDS, cm.CORRUPT_PROFILE, 10.0, 20,
                                    seed=42, dt=0.01)
    d_small, _ = cm.lln_convergence(THREE_EQ, 100, THIRDS, cm.CORRUPT_PROFILE, 10.0, 20, seed=42,
                                    dt=0.01)
    elapsed = time.perf_counter() - t0

    assert d_large <= 0.02
    assert d_small / d_large >= 2.0
    report(8, elapsed, 120.0,
           f"N=10^4 distance {d_large:.4f} <= 0.02, N=100 ratio {d_small / d_large:.1f} >= 2")


def test_criterion_09_approximate_nash():
    rep = cm.enumerate_equilibria(BASELINE)[0]
    t0 = time.perf_counter()
    at_eq = cm.deviation_gain(BASELINE, rep, horizon=100.0, N=1000, replications=100, seed=77)
    forced = dataclasses.replace(rep, strategy=cm.HONEST_PROFILE, behavior=cm.Behavior.HONEST)
    off_eq = cm.deviation_gain(BASELINE, forced, horizon=100.0, N=1000, replications=100, seed=78)
    elapsed = time.perf_counter() - t0

    assert at_eq.gain <= 3.0 * at_eq.std_error
    assert off_eq.gain >= 3.0 * off_eq.std_error
    assert off_eq.best_profile == cm.CORRUPT_PROFILE
    report(9, elapsed, 60.0,
           f"equilibrium gain {at_eq.gain:.1f} (se {at_eq.std_error:.1f}); "
           f"forced-honest switch gain {off_eq.gain:.1f} (se {off_eq.std_error:.1f})")


def test_criterion_10_discounted_classifier_continuity():
    rng = np.random.default_rng(106)
    params = [moderate_params(rng) for _ in range(1000)]
    t0 = time.perf_counter()
    worst = 0.0
    for p in params:
        base = cm.classifier_xbar(p).value
        assert math.isfinite(base)
        worst = max(worst, abs(cm.classifier_xbar_discounted(p, 1e-8).value - base))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-6
    report(10, elapsed, 1.0, f"|x_bar(1e-8) - x_bar| worst {worst:.2e} over 1000 sets")


def test_criterion_11_cli_determinism_and_roundtrip(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "lambda = 0.1\nr = 1\nb = 0.2\nf = 0\nq_soc = 0.5\nq_inf = 2\n"
        "w_R = 0\nw_H = 1\nw_C = 1.275\nt_end = 3\nN = 100\nreplications = 5\nseed = 9\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["ctmc", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["ctmc", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    eq_out = tmp_path / "eq.csv"
    assert cli.main(["equilibria", "--config", str(cfg), "--out", str(eq_out)]) == 0
    lines = [l for l in eq_out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    p = cli.parse_config(cfg.read_text()).params
    for row in lines[1:]:
        record = dict(zip(header, row.split(",")))
        state = cm.PopulationState(
            float(record["x_R"]), float(record["x_H"]), float(record["x_C"])
        )
        strategy = cm.StrategyProfile(int(record["u_H"]), int(record["u_C"]))
        recomputed = max_rhs(p, state, strategy)
        assert abs(recomputed - float(record["residual"])) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(11, elapsed, 60.0, "ctmc byte-identical reruns; equilibrium residuals re-verified")
