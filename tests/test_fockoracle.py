"""Dense Fock-space reference against the closed-form engine."""

import cmath
import math

import numpy as np
import pytest

from hoamp.dynamics import (MarkerAmplitude, OscillatorParams, epsilon_overlap,
                            phase_delta)
from hoamp.ensemble import conditional_update, init_uniform_factoring
from hoamp.fockoracle import (CutoffTooSmall, DimensionTooLarge, brute_force_step,
                              coherent_vector, dense_condition, dense_marker_overlaps,
                              required_cutoff)

from conftest import factor_fidelity, per_member


def test_required_cutoff_scales_with_alpha():
    assert required_cutoff(0.0) == 10
    assert required_cutoff(2.0) >= 4 + 20 + 10      # alpha^2 + 10 alpha + 10
    assert required_cutoff(3.0) > required_cutoff(2.0)


def test_coherent_vector_normalized():
    for alpha in (0.5, 1.5, 2.0 + 1.0j):
        v = coherent_vector(alpha, required_cutoff(abs(alpha)))
        assert math.fsum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_vector_poisson_weights():
    a = 1.3
    v = coherent_vector(a, required_cutoff(a))
    for n in (0, 1, 5):
        want = math.exp(-a * a) * a ** (2 * n) / math.factorial(n)
        assert abs(v[n]) ** 2 == pytest.approx(want, rel=1e-12)


def test_coherent_vector_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        coherent_vector(2.0, 5)


def test_overlap_of_rotated_coherent_states():
    # <alpha | alpha e^{i delta}> must match the closed form the engine uses
    a = MarkerAmplitude(1.7)
    M = required_cutoff(1.7) + 5
    for delta in (0.3, -1.2, 2.9):
        va = coherent_vector(a.magnitude, M)
        vb = coherent_vector(a.magnitude * cmath.exp(1j * delta), M)
        dense = complex(np.vdot(va, vb))
        assert abs(dense - epsilon_overlap(a, delta)) < 1e-12


def test_brute_force_step_matches_engine_pure():
    st = init_uniform_factoring(35)
    params = OscillatorParams()
    out = conditional_update(st, params, MarkerAmplitude(1.5), 35, 0.8)
    post, pr = brute_force_step(*per_member(st), params, 0.8, 35, MarkerAmplitude(1.5))
    assert pr == pytest.approx(out.probability, abs=1e-12)
    np.testing.assert_allclose(post, per_member(out.post_state)[1], atol=1e-12)


def test_observables_are_phase_free_against_dense_amplitudes():
    # N = 105 has three factor pairs in range, so F is a coherent sum over
    # three members.  The dense oracle carries complex amplitudes through four
    # chained steps, the engine only bin masses: Pr, F and every pair's share
    # of its bin agree, because the target amplitudes stay real and equal
    # while the others turn
    N, alpha, params = 105, MarkerAmplitude(2.0), OscillatorParams()
    factors = ((3, 35), (5, 21), (7, 15))
    st = init_uniform_factoring(N)
    assert st.members(int(np.searchsorted(st.keys, N))).tolist() == [list(f) for f in factors]
    tuples, masses = per_member(st)
    assert len(tuples) == 225
    rows = [int(np.flatnonzero((tuples == m).all(axis=1))[0]) for m in factors]
    amps = np.sqrt(masses).astype(np.complex128)
    for t in (0.8, 2.3, 4.1, 5.6):
        amps, pr_dense = dense_condition(tuples, amps, params, t, N, alpha)
        f_dense = abs(sum(math.sqrt(1 / len(rows)) * amps[i] for i in rows)) ** 2
        on_target = amps[rows]
        assert np.max(np.abs(on_target.imag)) <= 1e-12 * abs(on_target[0])
        np.testing.assert_allclose(on_target.real, on_target.real[0], rtol=1e-12)
        assert np.max(np.abs(amps.imag)) > 1e-3          # off-target phases exist
        out = conditional_update(st, params, alpha, N, t)
        st = out.post_state
        assert out.probability == pytest.approx(pr_dense, abs=1e-10)
        assert factor_fidelity(st, N) == pytest.approx(f_dense, abs=1e-10)
        np.testing.assert_allclose(per_member(st)[1], np.abs(amps) ** 2, atol=1e-12)


def test_brute_force_step_higher_order_coupling():
    st = init_uniform_factoring(35)
    params = OscillatorParams(couplings=(0.7, 0.3))
    out = conditional_update(st, params, MarkerAmplitude(1.2), 35, 0.37)
    post, pr = brute_force_step(*per_member(st), params, 0.37, 35, MarkerAmplitude(1.2))
    assert pr == pytest.approx(out.probability, abs=1e-12)
    np.testing.assert_allclose(post, per_member(out.post_state)[1], atol=1e-12)


def test_brute_force_step_custom_term_fn():
    # term = second register component h(n): the parity marker used by search
    from hoamp.search import (T_S, BlackBox, SearchConfig, apply_black_box,
                              initial_search_state, search_iteration)
    box = BlackBox.from_solution_indices(8, [5])
    st = apply_black_box(initial_search_state(box), box)
    config = SearchConfig()
    post_a, rec = search_iteration(st, config, 1)
    tuples = np.array([(n, box.h(n)) for n in range(8)])
    post_b, pr = brute_force_step(tuples, np.full(8, 1 / 8), OscillatorParams(), T_S, 0,
                                  MarkerAmplitude(2.0), term_fn=lambda row: int(row[1]))
    assert pr == pytest.approx(rec.pr_E, abs=1e-12)
    np.testing.assert_allclose(post_b, per_member(post_a)[1], atol=1e-12)


@pytest.mark.parametrize("couplings", [(1.0,), (0.7, 0.3)])
def test_frequencies_cancel_against_engine(couplings):
    # the dense physics with nonzero register and marker frequencies gives
    # the engine's frequency-free conditioning, step after step; the
    # frequencies do turn the dense amplitudes, only no observable sees it
    N, alpha, params = 35, MarkerAmplitude(1.5), OscillatorParams(couplings=couplings)
    omegas = {"register_omegas": (0.37, -1.9), "marker_omega": 2.3}
    st = init_uniform_factoring(N)
    tuples, masses = per_member(st)
    amps = plain = np.sqrt(masses).astype(np.complex128)
    for t in (0.8, 2.3, 4.1):
        amps, pr = dense_condition(tuples, amps, params, t, N, alpha, **omegas)
        plain, pr_plain = dense_condition(tuples, plain, params, t, N, alpha)
        assert np.max(np.abs(amps - plain)) > 1e-3
        out = conditional_update(st, params, alpha, N, t)
        st = out.post_state
        assert pr == pytest.approx(out.probability, abs=1e-12)
        assert pr_plain == pytest.approx(pr, abs=1e-12)
        np.testing.assert_allclose(np.abs(amps) ** 2, per_member(st)[1], atol=1e-12)
    # search: the marker frequency needs no even multiple of g_tilde
    from hoamp.search import (T_S, BlackBox, SearchConfig, apply_black_box,
                              initial_search_state, search_iteration)
    box = BlackBox.from_solution_indices(8, [2, 5])
    post, rec = search_iteration(apply_black_box(initial_search_state(box), box),
                                 SearchConfig(), 1)
    for marker_omega in (0.0, 1.0, 2.3):
        post_d, pr_d = brute_force_step(
            np.array([(n, box.h(n)) for n in range(8)]), np.full(8, 1 / 8),
            OscillatorParams(), T_S, 0, MarkerAmplitude(2.0), term_fn=lambda row: int(row[1]),
            register_omegas=(0.37, -1.9), marker_omega=marker_omega)
        assert pr_d == pytest.approx(rec.pr_E, abs=1e-12)
        np.testing.assert_allclose(post_d, per_member(post)[1], atol=1e-12)


def test_dense_marker_overlaps_match_epsilon():
    params = OscillatorParams()
    alpha = MarkerAmplitude(1.5)
    values = [0, 1, 4, 7]
    accepted = [2, 4]
    t = 0.9
    rows = dense_marker_overlaps(values, 0.25, alpha, t, accepted)
    assert rows.shape == (4, 2)
    for i, v in enumerate(values):
        for j, x in enumerate(accepted):
            want = epsilon_overlap(alpha, phase_delta(params, x, v, t))
            assert abs(abs(rows[i, j]) - abs(want)) < 1e-10


def test_dimension_guard():
    st = init_uniform_factoring(3599)              # 1920 pairs
    with pytest.raises(DimensionTooLarge):
        brute_force_step(*per_member(st), OscillatorParams(), 1.0, 3599,
                         MarkerAmplitude(40.0))
