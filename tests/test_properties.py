"""Property-based invariants of the conditioning dynamics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hoamp.dynamics import (MarkerAmplitude, OscillatorParams, epsilon_overlap,
                            phase_delta, phase_delta_batch)
from hoamp.ensemble import (apply_entry_multipliers, conditional_update, factoring_ranges,
                            init_uniform_factoring, member_masses, sample)
from hoamp.constraints import ConstraintSystem
from hoamp.factoring import FactoringConfig, run_factoring
from hoamp.fockoracle import dense_marker_overlaps
from hoamp.rng import SplitMix64
from hoamp.search import BlackBox, SearchConfig, run_search
from hoamp.solver import run_solver

from conftest import factor_fidelity

PI = math.pi

alphas = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
angles = st.floats(min_value=-PI, max_value=PI, allow_nan=False)
times = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)
terms = st.integers(min_value=0, max_value=10**9)
small_semiprimes = st.sampled_from([35, 77, 143, 221, 391, 667, 899, 1147])


@given(alphas, angles)
def test_epsilon_magnitude_never_exceeds_one(a, ang):
    eps = epsilon_overlap(MarkerAmplitude(a), ang)
    assert abs(eps) <= 1.0 + 1e-15


@given(alphas, angles)
def test_epsilon_squared_closed_form(a, ang):
    eps = epsilon_overlap(MarkerAmplitude(a), ang)
    want = math.exp(-2.0 * a * a * (1.0 - math.cos(ang)))
    assert abs(abs(eps) ** 2 - want) <= 1e-12 * max(want, 1e-12)


@given(alphas)
def test_epsilon_exactly_one_only_on_resonance(a):
    assert epsilon_overlap(MarkerAmplitude(a), 0.0) == 1.0 + 0.0j
    if a > 0.1:
        assert abs(epsilon_overlap(MarkerAmplitude(a), 0.5)) < 1.0


@given(terms, terms, times)
def test_phase_delta_antisymmetric(a, b, t):
    p = OscillatorParams()
    fwd = phase_delta(p, a, b, t).angle
    rev = phase_delta(p, b, a, t).angle
    # antisymmetric on the circle; the +pi representative maps to itself
    diff = abs(math.remainder(fwd + rev, 2 * PI))
    assert diff < 1e-15 or abs(diff - 2 * PI) < 1e-15


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000),
       st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=-50, max_value=50))
@settings(max_examples=40, deadline=None)
def test_phase_delta_omega_independent(a, b, t, w):
    # the dense overlap of markers that also turn at their own frequency w
    # is the engine's eps at phase_delta, which has no frequency in it
    alpha = MarkerAmplitude(1.5)
    dense = dense_marker_overlaps([b], w, alpha, t, [a])[0, 0]
    want = epsilon_overlap(alpha, phase_delta(OscillatorParams(), a, b, t))
    assert abs(dense - want) < 1e-9


@given(st.integers(min_value=0, max_value=10**6), times)
@settings(max_examples=60)
def test_batch_agrees_with_scalar_reduction(target, t):
    p = OscillatorParams(couplings=(0.5, 0.25))
    trials = np.array([0, 1, target, target + 1, 999_983], dtype=np.int64)
    batch = phase_delta_batch(p, target, trials, t)
    for i, trial in enumerate(trials):
        exact = phase_delta(p, target, int(trial), t).angle
        d = abs(batch[i] - exact)
        assert min(d, 2 * PI - d) < 1e-11


@given(small_semiprimes, times, st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_conditioning_preserves_norm_and_caps_pr(n, t, a):
    state = init_uniform_factoring(n)
    out = conditional_update(state, OscillatorParams(), MarkerAmplitude(a), n, t)
    assert 0.0 < out.probability <= 1.0
    assert out.post_state.total_mass() == out.normalization
    assert math.fsum(w for _, w in member_masses(out.post_state)) == pytest.approx(
        1.0, abs=1e-11)


@given(small_semiprimes, times, st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_conditioning_never_decreases_fidelity(n, t, a):
    # the factor branch keeps |eps| = 1, everything else shrinks, so the
    # renormalized fidelity cannot drop
    state = init_uniform_factoring(n)
    before = factor_fidelity(state, n)
    out = conditional_update(state, OscillatorParams(), MarkerAmplitude(a), n, t)
    after = factor_fidelity(out.post_state, n)
    assert after >= before - 1e-13


@given(small_semiprimes, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pr_lambda_product_identity(n, seed):
    # lambda_l is the float inverse of Pr, so the product sits within an ulp
    # of 1; the running normalization is the product of step probabilities
    report = run_factoring(FactoringConfig(N=n, seed=seed, L_max=6,
                                           stop_fidelity=0.999))
    c = 1.0
    for rec in report.records:
        assert abs(rec.lambda_l * rec.pr_E - 1.0) < 1e-12
        c *= rec.pr_E
        assert rec.C_l == pytest.approx(c, rel=1e-12)


# The solution bins keep multiplier 1, so their mass stays at its initial
# share F_0 and C_l * F_l = F_0 at every step: C_l never falls below F_0.

def _assert_total_times_share_is_initial(records, share, f0):
    for rec in records:
        assert rec.C_l * share(rec) / f0 == pytest.approx(1.0, rel=1e-12, abs=0)


@given(st.sampled_from([35, 143, 899, 1_001, 1_155, 6_557]),
       st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([(1.0,), (1.0, 0.5)]))
@example(1_001, 5, (1.0,))
@settings(max_examples=30, deadline=None)
def test_factoring_total_times_fidelity_is_initial_fidelity(n, seed, couplings):
    report = run_factoring(FactoringConfig(N=n, params=OscillatorParams(couplings=couplings),
                                           seed=seed, L_max=10, stop_fidelity=1.0))
    _assert_total_times_share_is_initial(report.records, lambda r: r.fidelity,
                                          report.initial_fidelity)


@given(st.integers(min_value=1, max_value=5000), st.data(),
       st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_search_total_times_solution_mass_is_initial_share(d, data, a):
    marked = data.draw(st.lists(st.integers(min_value=0, max_value=d - 1), min_size=1,
                                max_size=8, unique=True))
    report = run_search(SearchConfig(alpha_schedule=(a,), L_max=12, stop_mass=1.0),
                        BlackBox.from_solution_indices(d, marked))
    _assert_total_times_share_is_initial(report.records, lambda r: r.solution_mass,
                                          len(marked) / d)


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=14),
       st.data(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_solver_total_times_solution_mass_is_initial_share(bx, by, data, seed):
    # (x0, y0) satisfies both constraints, so the system is feasible
    x0 = data.draw(st.integers(min_value=0, max_value=bx))
    y0 = data.draw(st.integers(min_value=0, max_value=by))
    s = x0 + y0 + data.draw(st.integers(min_value=0, max_value=6))
    p = max(0, x0 * y0 - data.draw(st.integers(min_value=0, max_value=20)))
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": bx}, {"name": "y", "bound": by}],
        "constraints": [{"expr": "x + y", "relation": "<=", "bound": s},
                        {"expr": "x*y", "relation": ">=", "bound": p}],
    })
    report = run_solver(system, seed=seed, L_max=8, stop_mass=1.0)
    _assert_total_times_share_is_initial(report.records, lambda r: r.solution_mass,
                                          report.solution_count / ((bx + 1) * (by + 1)))


@pytest.mark.parametrize("N", [35, 143, 1_001])
def test_solver_embedding_total_times_solution_mass_is_initial_share(N):
    # factoring N as the equality system m1*m2 = N over [0, n_hi] x [0, m_hi]
    _, n_hi, _, m_hi = factoring_ranges(N)
    system = ConstraintSystem.from_json({
        "variables": [{"name": "m1", "bound": n_hi}, {"name": "m2", "bound": m_hi}],
        "constraints": [{"expr": "m1*m2", "relation": "=", "bound": N}],
    })
    report = run_solver(system, seed=N, L_max=10, stop_mass=1.0)
    _assert_total_times_share_is_initial(report.records, lambda r: r.solution_mass,
                                          report.solution_count / ((n_hi + 1) * (m_hi + 1)))


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_rng_uniform_bounds(seed):
    rng = SplitMix64(seed)
    for _ in range(16):
        x = rng.uniform()
        assert 0.0 <= x < 1.0


@given(small_semiprimes, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_sample_returns_supported_tuple(n, seed):
    state = init_uniform_factoring(n)
    tup = sample(state, seed)
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(n)
    assert n_lo <= tup[0] <= n_hi and m_lo <= tup[1] <= m_hi


@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=21),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_apply_entry_multipliers_renormalizes(mults, seed):
    state = init_uniform_factoring(35)            # 21 product bins
    m = np.ones(21)
    m[: len(mults)] = np.array(mults)
    out = apply_entry_multipliers(state, m)
    assert out.post_state.total_mass() == out.normalization
    assert math.fsum(w for _, w in member_masses(out.post_state)) == pytest.approx(
        1.0, abs=1e-12)
    assert 0.0 < out.probability <= 1.0
