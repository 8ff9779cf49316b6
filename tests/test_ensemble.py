"""Trial ensembles, conditional measurements, fidelity, sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from hoamp import ensemble
from hoamp.dynamics import (KERNEL_BLOCK, KernelScratch, MarkerAmplitude, OscillatorParams,
                            epsilon_overlap, phase_delta)
from hoamp.ensemble import (TargetState, TrialEnsemble, apply_entry_multipliers,
                            bin_by_product, ceil_sqrt, conditional_update,
                            factoring_ranges, fidelity, init_uniform_factoring,
                            sample)
from hoamp.errors import (ConditionedMassVanished, DomainTooLarge, EmptyRange,
                          NoFactorInRange)
from hoamp.rng import SplitMix64

PARAMS = OscillatorParams()


def test_ceil_sqrt():
    assert ceil_sqrt(35) == 6
    assert ceil_sqrt(36) == 6
    assert ceil_sqrt(37) == 7
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(0) == 0


def test_factoring_ranges_table_instance():
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(1_030_189)
    assert (n_lo, n_hi) == (3, 1015)
    assert (m_lo, m_hi) == (1015, 343_397)


def test_factoring_ranges_n35():
    assert factoring_ranges(35) == (3, 6, 6, 12)


def test_init_n35_explicit():
    st = init_uniform_factoring(35)
    assert st.layout == "explicit"
    assert st.n_entries == 28                      # 4 values of n, 7 of m
    assert st.weights.dtype == np.float64
    # uniform masses, unit total
    assert st.weights[0] == pytest.approx(1 / 28)
    assert st.total_mass() == pytest.approx(1.0, abs=1e-14)
    # lexicographic order
    assert tuple(st.tuples[0]) == (3, 6)
    assert tuple(st.tuples[-1]) == (6, 12)


def test_init_n35_distinct_products():
    st = init_uniform_factoring(35)
    products = sorted(set(int(n) * int(m) for n, m in st.tuples))
    assert len(products) == 21
    assert products == [18, 21, 24, 27, 28, 30, 32, 33, 35, 36, 40, 42, 44, 45,
                        48, 50, 54, 55, 60, 66, 72]


def test_init_n8_single_pair():
    st = init_uniform_factoring(8)
    assert st.n_entries == 1
    assert tuple(st.tuples[0]) == (3, 3)


def test_init_n9_empty_m_range():
    # ceil(sqrt(10)) = 4 > ceil(9/3) = 3: no trial pairs at all
    with pytest.raises(EmptyRange):
        init_uniform_factoring(9)


def test_binned_layout_matches_explicit():
    a = init_uniform_factoring(35, layout="explicit")
    b = init_uniform_factoring(35, layout="binned")
    assert b.layout == "binned"
    assert b.n_entries == 28
    table = bin_by_product(a)
    assert np.array_equal(np.sort(table.keys), b.keys)
    assert b.total_mass() == pytest.approx(1.0, abs=1e-14)
    # bin for the factor product holds exactly the factor pair
    i = int(np.searchsorted(b.keys, 35))
    assert b.keys[i] == 35 and b.counts[i] == 1


def _brute_force_bins(n_lo, n_hi, m_lo, m_hi):
    """np.unique over every explicit pair product: (keys, counts)."""
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    m = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    return np.unique(np.outer(n, m), return_counts=True)


@pytest.mark.parametrize("N", [35, 6557, 30_000])
def test_binned_build_matches_brute_force(N):
    # 30,000: 1.74M product slots, two sieve windows, the second partial
    st = init_uniform_factoring(N, layout="binned")
    keys, counts = _brute_force_bins(*factoring_ranges(N))
    assert st.keys.dtype == np.int32 and np.array_equal(st.keys, keys)
    assert st.counts.dtype == np.int32 and np.array_equal(st.counts, counts)
    mass = counts.astype(np.float64) * (1.0 / counts.sum())
    assert st.mass.tobytes() == mass.tobytes()


@pytest.mark.parametrize("rect,window,key_dtype", [
    (factoring_ranges(6557), 4096, np.int32),          # 44 windows, last partial
    ((50_000, 50_010, 49_990, 50_100), 1 << 20, np.int64),   # products past 2^31
])
def test_product_bins_across_windows(monkeypatch, rect, window, key_dtype):
    monkeypatch.setattr(ensemble, "_SIEVE_WINDOW", window)
    keys, counts = ensemble._product_bins(*rect)
    want_keys, want_counts = _brute_force_bins(*rect)
    assert keys.dtype == key_dtype and np.array_equal(keys, want_keys)
    assert counts.dtype == np.int32 and np.array_equal(counts, want_counts)


@pytest.mark.parametrize("N", [3_000_000, 10**22])
def test_bin_cap_raises_before_allocating(N):
    # 3,000,000 has 1.73e9 trial pairs, so could need that many bins: past
    # the cap, and refused before any array is made
    tracemalloc.start()
    try:
        with pytest.raises(DomainTooLarge):
            init_uniform_factoring(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_conditioning_reuses_one_scratch_per_worker(monkeypatch):
    made = []

    class CountedScratch(KernelScratch):
        def __init__(self, size):
            super().__init__(size)
            made.append(size)

    monkeypatch.setattr(ensemble, "KernelScratch", CountedScratch)
    st = init_uniform_factoring(50_000, layout="binned")
    assert len(st.keys) > ensemble._CHUNK           # two chunks, 22 blocks
    outs = []
    for threads in (1, 2):
        monkeypatch.setenv("HOAMP_THREADS", str(threads))
        made.clear()
        outs.append(conditional_update(st, PARAMS, MarkerAmplitude(2.0), 50_000, 0.9))
        assert 1 <= len(made) <= threads and set(made) == {KERNEL_BLOCK}
    assert outs[0].post_state.mass.tobytes() == outs[1].post_state.mass.tobytes()


def test_factor_target():
    t = TargetState.factor_target(35)
    assert t.members == ((5, 7),)
    t2 = TargetState.factor_target(1_030_189)
    assert t2.members == ((1009, 1021),)
    with pytest.raises(NoFactorInRange):
        TargetState.factor_target(37)


def test_conditional_update_oracle_values():
    # frozen by an independent dense computation: N=35, alpha=2, t=1
    st = init_uniform_factoring(35)
    out = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    assert out.probability == pytest.approx(0.20603184751938344, rel=1e-12)
    assert out.normalization == pytest.approx(out.probability, rel=0, abs=0)
    post = {tuple(t): w for t, w in zip(map(tuple, out.post_state.tuples),
                                        out.post_state.entry_masses())}
    assert post[(5, 7)] == pytest.approx(0.17334352016100674, rel=1e-12)
    assert post[(3, 6)] == pytest.approx(6.434819982501069e-06, rel=1e-12)
    assert post[(6, 12)] == pytest.approx(0.026538266410709672, rel=1e-12)


def test_conditional_update_preserves_norm():
    st = init_uniform_factoring(143)
    out = conditional_update(st, PARAMS, MarkerAmplitude(1.5), 143, 0.77)
    assert out.post_state.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < out.probability <= 1.0


def test_conditional_update_chains_normalization():
    st = init_uniform_factoring(35)
    o1 = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    o2 = conditional_update(o1.post_state, PARAMS, MarkerAmplitude(2.0), 35, 0.4,
                            prev_norm=o1.normalization)
    assert o2.normalization == pytest.approx(o1.normalization * o2.probability,
                                             rel=1e-14)


def test_conditional_update_unsorted_explicit_products():
    # explicit rows are sorted by tuple, not by product: here the largest
    # product sits in the middle row, and every mass must still get the
    # scalar |eps|^2
    st = TrialEnsemble(arity=2, tuples=np.array([[1, 5], [2, 500], [3, 1]]),
                       weights=np.full(3, 1 / 3))
    alpha = MarkerAmplitude(0.3)
    out = conditional_update(st, PARAMS, alpha, 3, 0.7)
    want = np.array([abs(epsilon_overlap(alpha, phase_delta(PARAMS, 3, u, 0.7))) ** 2
                     for u in (5, 1000, 3)])
    np.testing.assert_allclose(out.post_state.weights, want / want.sum(), rtol=1e-12)


def test_binned_update_matches_explicit_update():
    a = init_uniform_factoring(35, layout="explicit")
    b = init_uniform_factoring(35, layout="binned")
    oa = conditional_update(a, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    ob = conditional_update(b, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    assert ob.probability == pytest.approx(oa.probability, rel=1e-13)
    ta = bin_by_product(oa.post_state)
    order = np.argsort(ta.keys)
    np.testing.assert_allclose(ta.mass[order], ob.post_state.mass, rtol=1e-12)


def test_apply_entry_multipliers_identity():
    # all-ones multiplier: the measured mass is the (rounded) state norm,
    # so Pr caps at 1 and the state only gets renormalized within an ulp
    st = init_uniform_factoring(35)
    out = apply_entry_multipliers(st, np.ones(28))
    assert out.probability == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(out.post_state.weights, st.weights, rtol=1e-14)


def test_apply_entry_multipliers_probability_capped():
    st = init_uniform_factoring(35)
    out = apply_entry_multipliers(st, np.ones(28), prev_norm=1.0)
    assert out.probability <= 1.0


def test_apply_entry_multipliers_vanished_mass():
    st = init_uniform_factoring(35)
    with pytest.raises(ConditionedMassVanished):
        apply_entry_multipliers(st, np.zeros(28))


def test_fidelity_initial_uniform():
    st = init_uniform_factoring(35)
    t = TargetState.factor_target(35)
    assert fidelity(st, t) == pytest.approx(1.0 / 28.0, rel=1e-14)
    b = init_uniform_factoring(35, layout="binned")
    assert fidelity(b, t) == pytest.approx(1.0 / 28.0, rel=1e-14)


def test_fidelity_multi_member_target_pure():
    # two-member target: fidelity is |<phi|Psi>|^2, which for a uniform state
    # over 28 pairs and a 2-member uniform target is (2/sqrt(2*28))^2 = 1/14
    st = init_uniform_factoring(1961)              # 37*53, in-range pair
    t = TargetState(members=((37, 53), (3, 654)), weights=(0.5, 0.5))
    f = fidelity(st, t)
    n = st.n_entries
    assert f == pytest.approx((2 / math.sqrt(2 * n)) ** 2, rel=1e-12)


def test_fidelity_finds_every_explicit_row():
    # explicit rows are found by binary search in lexicographic order: each
    # single-member target must pick out exactly its own row's mass
    st = init_uniform_factoring(1961)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=len(st.tuples)) + 1j * rng.normal(size=len(st.tuples))
    st = TrialEnsemble(arity=2, tuples=st.tuples,
                       weights=np.abs(amps / np.linalg.norm(amps)) ** 2)
    for i in range(0, len(st.tuples), 7):
        t = TargetState(members=(tuple(int(x) for x in st.tuples[i]),), weights=(1.0,))
        assert fidelity(st, t) == pytest.approx(st.weights[i], rel=1e-12)
    absent = TargetState(members=((2, 1961), (46, 40), (3,)), weights=(0.5, 0.25, 0.25))
    assert fidelity(st, absent) == 0.0


def test_fidelity_member_outside_domain_counts_zero():
    b = init_uniform_factoring(35, layout="binned")
    t = TargetState(members=((1, 35),), weights=(1.0,))   # n=1 outside [3,6]
    assert fidelity(b, t) == 0.0


def test_bin_by_product_n35():
    st = init_uniform_factoring(35)
    table = bin_by_product(st, target_term=35)
    assert table.n_bins == 21
    assert table.target_members == ((5, 7),)
    i = int(np.flatnonzero(table.keys == 36)[0])
    assert table.counts[i] == 3                    # (3,12), (4,9), (6,6)
    assert math.fsum(table.mass) == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic_and_supported():
    st = init_uniform_factoring(35)
    a = sample(st, 123)
    b = sample(st, 123)
    assert a == b
    assert a in {tuple(t) for t in map(tuple, st.tuples)}


def test_sample_binned_returns_valid_pair():
    b = init_uniform_factoring(35, layout="binned")
    for seed in range(20):
        n, m = sample(b, seed)
        assert 3 <= n <= 6 and 6 <= m <= 12


def test_sample_concentrated_state():
    st = init_uniform_factoring(35)
    out = st
    norm = 1.0
    for t in (1.0, 0.4, 2.2, 0.9, 1.7):
        o = conditional_update(out, PARAMS, MarkerAmplitude(2.0), 35, t, prev_norm=norm)
        out, norm = o.post_state, o.normalization
    # essentially all mass on (5, 7) now: every seed should return it
    for seed in range(10):
        assert sample(out, SplitMix64(seed)) == (5, 7)


def test_explicit_binned_sampling_agree_in_distribution():
    a = init_uniform_factoring(35)
    b = init_uniform_factoring(35, layout="binned")
    # same seed need not give the same pair (different entry order), but both
    # must stay inside the trial rectangle with uniform marginals over n
    pairs_a = {sample(a, s) for s in range(50)}
    pairs_b = {sample(b, s) for s in range(50)}
    allpairs = {tuple(t) for t in map(tuple, a.tuples)}
    assert pairs_a <= allpairs and pairs_b <= allpairs
