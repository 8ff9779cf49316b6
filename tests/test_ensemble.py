"""Trial ensembles, conditional measurements, fidelity, sampling."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hoamp import ensemble
from hoamp.dynamics import (KERNEL_BLOCK, KernelScratch, MarkerAmplitude, OscillatorParams,
                            epsilon_overlap, gather_phasors, phase_delta, phase_table,
                            target_phasors, value_digits)
from hoamp.ensemble import (TrialEnsemble, apply_entry_multipliers, ceil_sqrt,
                            conditional_update, factoring_ranges, fidelity,
                            init_uniform_factoring, member_masses, sample, trial_rectangle)
from hoamp.errors import (ConditionedMassVanished, DomainTooLarge, EmptyRange,
                          NoFactorInRange)
from hoamp.factoring import FactoringConfig, run_factoring
from hoamp.reporting import to_json_text
from hoamp.rng import SplitMix64

from conftest import factor_fidelity, factoring_rectangle

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
    # the 28 explicit pairs, each with mass 1/28, read back through the bins
    st = init_uniform_factoring(35)
    assert st.n_entries == 28                      # 4 values of n, 7 of m
    assert st.mass.dtype == np.float64
    assert st.total_mass() == pytest.approx(1.0, abs=1e-14)
    pairs = member_masses(st)
    assert len(pairs) == 28
    assert pairs[0][0] == (3, 6) and pairs[-1][0] == (6, 12)
    assert all(w == pytest.approx(1 / 28, rel=1e-15) for _, w in pairs)


def test_init_n35_distinct_products():
    st = init_uniform_factoring(35)
    assert st.keys.tolist() == [18, 21, 24, 27, 28, 30, 32, 33, 35, 36, 40, 42, 44, 45,
                                48, 50, 54, 55, 60, 66, 72]


def test_init_n8_single_pair():
    st = init_uniform_factoring(8)
    assert st.n_entries == 1
    assert st.keys.tolist() == [9] and st.members(0).tolist() == [[3, 3]]


def test_init_n9_empty_m_range():
    # ceil(sqrt(10)) = 4 > ceil(9/3) = 3: no trial pairs at all
    with pytest.raises(EmptyRange):
        init_uniform_factoring(9)


def test_binned_layout_matches_explicit():
    # the bins' members are the explicit pairs, each once, in the bin of its
    # product
    b = init_uniform_factoring(35)
    pairs = factoring_rectangle(35)
    assert [p for p, _ in member_masses(b)] == [tuple(p) for p in pairs.tolist()]
    for i, v in enumerate(b.keys.tolist()):
        members = b.members(i)
        assert len(members) == b.counts[i]
        assert (members[:, 0] * members[:, 1] == v).all()
    # bin for the factor product holds exactly the factor pair
    i = int(np.searchsorted(b.keys, 35))
    assert b.keys[i] == 35 and b.members(i).tolist() == [[5, 7]]


def _brute_force_bins(n_lo, n_hi, m_lo, m_hi):
    """np.unique over every explicit pair product: (keys, counts)."""
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    m = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    return np.unique(np.outer(n, m), return_counts=True)


@pytest.mark.parametrize("N", [35, 6557, 30_000])
def test_binned_build_matches_brute_force(N):
    # 30,000: 1.74M product slots, two sieve windows, the second partial
    st = init_uniform_factoring(N)
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
    r = ensemble.Rectangle(*rect)
    blocks = list(ensemble._product_blocks(r, r.n_lo * r.m_lo))
    # every block but the last is full: the cuts conditioning makes
    assert {len(k) for k, _ in blocks[:-1]} <= {KERNEL_BLOCK}
    keys, counts = (np.concatenate(parts) for parts in zip(*blocks))
    want_keys, want_counts = _brute_force_bins(*rect)
    assert keys.dtype == key_dtype and np.array_equal(keys, want_keys)
    assert counts.dtype == np.int32 and np.array_equal(counts, want_counts)


@pytest.mark.parametrize("rect,window", [
    (factoring_ranges(30_000), None),                  # the real window, then a partial one
    (factoring_ranges(30_000), 4096),                  # windows under one sub-range
    (factoring_ranges(30_000), 3 * KERNEL_BLOCK + 4099),   # a short last sub-range
    ((46_000, 46_300, 46_500, 46_800), None),          # products on both sides of 2^31
    ((46_000, 46_300, 46_500, 46_800), 3 * KERNEL_BLOCK + 4099),
])
def test_sub_range_gather_matches_brute_force(monkeypatch, rect, window):
    # the sieve gathers each window KERNEL_BLOCK slots at a time; the bins,
    # and the blocks re-sieved from a block's first key as ProductStream.sample
    # re-sieves them, must not depend on where those sub-ranges fall
    if window is not None:
        monkeypatch.setattr(ensemble, "_SIEVE_WINDOW", window)
    r = ensemble.Rectangle(*rect)
    blocks = list(ensemble._product_blocks(r, r.n_lo * r.m_lo))
    assert len(blocks) > 1
    keys, counts = (np.concatenate(parts) for parts in zip(*blocks))
    want_keys, want_counts = _brute_force_bins(*rect)
    assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)
    width = ensemble._SIEVE_WINDOW
    assert any((int(k[0]) - r.n_lo * r.m_lo) % width for k, _ in blocks[1:])
    for k, c in blocks[1:]:
        got_k, got_c = next(ensemble._product_blocks(r, int(k[0])))
        assert got_k.dtype == k.dtype and np.array_equal(got_k, k)
        assert np.array_equal(got_c, c)


def test_sieve_yields_no_more_than_one_kernel_block_of_offsets(monkeypatch):
    # no window-sized offsets or counts array: neither in the streamed pass
    # nor in a draw's re-sieve.  N = 30,000 puts 0.54M bins in its first window
    sieve, lengths = ensemble._sieve, []

    def spy(*args):
        for w0, found, cnt in sieve(*args):
            assert len(found) == len(cnt)
            lengths.append(len(found))
            yield w0, found, cnt

    monkeypatch.setattr(ensemble, "_sieve", spy)
    rect = ensemble.trial_rectangle(30_000)
    stream = ensemble.ProductStream(rect, PARAMS, 30_000, [(0.9, 2.0)])
    n_bins = sum(lengths)
    assert len(stream.starts) > 2
    assert n_bins == len(_brute_force_bins(*factoring_ranges(30_000))[0])
    stream.sample(1, SplitMix64(3))
    assert sum(lengths) > n_bins and max(lengths) <= KERNEL_BLOCK


def test_streamed_pass_working_set(monkeypatch):
    # one pass at N = 205,193 (31M product slots, so every window but the
    # last is full) on one thread holds the sieve's two 3 MiB window slots,
    # one worker's 4 MiB kernel scratch and one block of products: a
    # 12.3 MiB tracemalloc peak.  Gathering a whole window's offsets and
    # counts at once takes 25.8 MiB; the bound lies between the two
    monkeypatch.setenv("HOAMP_THREADS", "1")
    rect = ensemble.trial_rectangle(205_193)
    tracemalloc.start()
    try:
        ensemble.ProductStream(rect, PARAMS, 205_193, [(0.9, 2.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_blocks_keeps_order_and_bounds_the_backlog(monkeypatch, threads):
    monkeypatch.setenv("HOAMP_THREADS", str(threads))
    lock = threading.Lock()
    done, ahead, scratches = [], [], {}

    def blocks(submit):
        for i in range(50):
            with lock:
                ahead.append(i - len(done))     # jobs not finished when block i is drawn
            yield i

    def job(i, scratch):
        time.sleep(0.001 * (i % 3))             # uneven jobs finish out of order
        with lock:
            scratches.setdefault(threading.get_ident(), set()).add(id(scratch))
            done.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # threads interleave as often as they can
    try:
        results = ensemble._map_blocks(blocks, job, 50)
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(50)]
    assert sorted(done) == list(range(50))
    assert max(ahead) <= 2 * threads
    # one scratch per worker thread, reused by every block it runs
    assert len(scratches) <= threads and all(len(s) == 1 for s in scratches.values())


@pytest.mark.parametrize("path", ["stored", "streamed"])
def test_conditioning_reuses_one_scratch_per_worker(monkeypatch, path):
    made = []

    class CountedScratch(KernelScratch):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(ensemble, "KernelScratch", CountedScratch)
    st = init_uniform_factoring(50_000)
    assert len(st.keys) > 2 * KERNEL_BLOCK          # 22 blocks
    outs = []
    for threads in (1, 2):
        monkeypatch.setenv("HOAMP_THREADS", str(threads))
        made.clear()
        if path == "stored":
            out = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 50_000, 0.9)
            outs.append(out.post_state.mass.tobytes())
            assert 1 <= len(made) <= threads
        else:
            report = run_factoring(FactoringConfig(N=50_000, seed=3, L_max=3))
            outs.append(to_json_text(report))
            assert 2 <= len(made) <= threads + 1   # the pass, plus one for the draw
        # no buffer outgrows one block
        assert max(len(b) for s in made for b in s._bufs.values()) <= KERNEL_BLOCK
    assert outs[0] == outs[1]


def test_on_target_bin_keeps_multiplier_exactly_one(monkeypatch):
    # Re(Q_N * P_N) alone rounds to 1 +- an ulp: the bin whose key is the
    # target must still be multiplied by exactly 1.0, and no bin by more
    blocks = []
    condition = ensemble._condition

    def spy(state, block_multipliers):
        n, scratch = len(state.keys), KernelScratch()
        blocks.append(np.concatenate([
            block_multipliers(lo, min(lo + KERNEL_BLOCK, n), scratch).copy()
            for lo in range(0, n, KERNEL_BLOCK)]))
        return condition(state, block_multipliers)

    monkeypatch.setattr(ensemble, "_condition", spy)
    raw_misses = 0
    for N in (35, 899, 6557, 205_193):
        st = init_uniform_factoring(N) if N < 10**5 else \
            TrialEnsemble.uniform(np.arange(N - 70_000, N + 70_000, dtype=np.int32),
                                  np.ones(140_000, dtype=np.int32), None)
        i = int(np.searchsorted(st.keys, N))
        for t in np.linspace(0.05, 6.2, 17):
            conditional_update(st, PARAMS, MarkerAmplitude(2.0), N, t)
            mult = blocks.pop()
            assert mult[i] == 1.0 and mult.max() <= 1.0
            table = phase_table(PARAMS, t, int(st.keys[-1]))
            p = gather_phasors(table, value_digits(table, st.keys[i : i + 1]))
            z = p * target_phasors(PARAMS, t, [N])[0]
            raw_misses += z.real[0] != 1.0
    assert raw_misses        # the pin is what makes it exact


def test_factor_target(monkeypatch):
    # the factor states are the members of bin N; a run with none in range
    # is refused before the sieve starts
    for N, pairs in ((35, [[5, 7]]), (1_030_189, [[1009, 1021]]),
                     (1_001, [[7, 143], [11, 91], [13, 77]])):
        assert trial_rectangle(N).members([N], 0).tolist() == pairs

    def no_sieve(*args):
        raise AssertionError("sieved")
    monkeypatch.setattr(ensemble, "_sieve", no_sieve)
    with pytest.raises(NoFactorInRange):
        run_factoring(FactoringConfig(N=37))


def test_conditional_update_oracle_values():
    # frozen by an independent dense computation: N=35, alpha=2, t=1
    st = init_uniform_factoring(35)
    out = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    assert out.probability == pytest.approx(0.20603184751938344, rel=1e-12)
    assert out.normalization == pytest.approx(out.probability, rel=0, abs=0)
    post = dict(member_masses(out.post_state))
    assert post[(5, 7)] == pytest.approx(0.17334352016100674, rel=1e-12)
    assert post[(3, 6)] == pytest.approx(6.434819982501069e-06, rel=1e-12)
    assert post[(6, 12)] == pytest.approx(0.026538266410709672, rel=1e-12)


def test_conditional_update_preserves_norm():
    # masses stay unnormalized: the state's total is their sum, and the
    # member probabilities, relative to it, sum to 1
    st = init_uniform_factoring(143)
    out = conditional_update(st, PARAMS, MarkerAmplitude(1.5), 143, 0.77)
    assert out.post_state.total_mass() == out.post_state.total == out.normalization
    assert math.fsum(w for _, w in member_masses(out.post_state)) == pytest.approx(
        1.0, abs=1e-12)
    assert 0.0 < out.probability <= 1.0


def test_conditional_update_copies_only_when_not_in_place():
    # the one copy point: in_place=False conditions a copy and leaves the
    # input's masses alone; in_place=True scales the input itself, to the
    # same bits
    st = init_uniform_factoring(35)
    saved = st.mass.tobytes()
    copied = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0, in_place=False)
    assert copied.post_state is not st and st.mass.tobytes() == saved
    assert copied.post_state.mass.tobytes() != saved
    assert st.total == 1.0
    scaled = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0, in_place=True)
    assert scaled.post_state is st
    assert st.mass.tobytes() == copied.post_state.mass.tobytes()
    assert st.total == copied.post_state.total == copied.normalization


def test_conditional_update_chains_normalization():
    st = init_uniform_factoring(35)
    o1 = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 35, 1.0)
    o2 = conditional_update(o1.post_state, PARAMS, MarkerAmplitude(2.0), 35, 0.4)
    assert o2.normalization == pytest.approx(o1.normalization * o2.probability,
                                             rel=1e-14)


def test_binned_update_matches_explicit_update():
    # every explicit pair scaled by its own scalar |eps|^2, then renormalized,
    # against the bins' masses shared equally among their members
    b = init_uniform_factoring(35)
    alpha = MarkerAmplitude(2.0)
    ob = conditional_update(b, PARAMS, alpha, 35, 1.0)
    pairs = factoring_rectangle(35).tolist()
    w = np.array([abs(epsilon_overlap(alpha, phase_delta(PARAMS, 35, n * m, 1.0))) ** 2
                  for n, m in pairs]) / len(pairs)
    assert ob.probability == pytest.approx(w.sum(), rel=1e-13)
    got = member_masses(ob.post_state)
    assert [p for p, _ in got] == [tuple(p) for p in pairs]
    np.testing.assert_allclose([x for _, x in got], w / w.sum(), rtol=1e-12)


def test_apply_entry_multipliers_identity():
    # all-ones multiplier: the measured mass is the (rounded) state norm,
    # so Pr caps at 1 and the state only gets renormalized within an ulp;
    # the state is scaled in place, so compare against a saved copy
    st = init_uniform_factoring(35)
    before = st.mass.copy()
    out = apply_entry_multipliers(st, np.ones(21))
    assert out.post_state is st
    assert out.probability == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(out.post_state.mass, before, rtol=1e-14)


def test_apply_entry_multipliers_probability_capped():
    st = init_uniform_factoring(35)
    out = apply_entry_multipliers(st, np.ones(21))
    assert out.probability <= 1.0


def test_apply_entry_multipliers_vanished_mass():
    st = init_uniform_factoring(35)
    with pytest.raises(ConditionedMassVanished):
        apply_entry_multipliers(st, np.zeros(21))


def test_fidelity_initial_uniform():
    st = init_uniform_factoring(35)
    assert factor_fidelity(st, 35) == pytest.approx(1.0 / 28.0, rel=1e-14)
    # k factor states in phase with equal shares: F is their bin's share
    assert fidelity(3, 0.25, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert fidelity(7, 2.0, 1.0) == 1.0


def test_product_bins_n35():
    st = init_uniform_factoring(35)
    assert len(st.keys) == 21
    assert st.members(int(np.searchsorted(st.keys, 35))).tolist() == [[5, 7]]
    i = int(np.flatnonzero(st.keys == 36)[0])
    assert st.counts[i] == 3
    assert st.members(i).tolist() == [[3, 12], [4, 9], [6, 6]]
    assert math.fsum(st.mass) == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic_and_supported():
    st = init_uniform_factoring(35)
    a = sample(st, 123)
    b = sample(st, 123)
    assert a == b
    assert a in {p for p, _ in member_masses(st)}


def test_sample_binned_returns_valid_pair():
    b = init_uniform_factoring(35)
    for seed in range(20):
        n, m = sample(b, seed)
        assert 3 <= n <= 6 and 6 <= m <= 12


def test_sample_concentrated_state():
    st = init_uniform_factoring(35)
    out = st
    for t in (1.0, 0.4, 2.2, 0.9, 1.7):
        out = conditional_update(out, PARAMS, MarkerAmplitude(2.0), 35, t).post_state
    # essentially all mass on (5, 7) now: every seed should return it
    for seed in range(10):
        assert sample(out, SplitMix64(seed)) == (5, 7)


def test_explicit_binned_sampling_agree_in_distribution():
    # drawing a bin by mass, then a member uniformly, samples each explicit
    # pair with its own mass: 2,800 draws from the uniform state hit all 28
    # pairs, each within 5 sigma of 100
    st = init_uniform_factoring(35)
    counts = {}
    for s in range(2800):
        pair = sample(st, s)
        counts[pair] = counts.get(pair, 0) + 1
    assert set(counts) == {p for p, _ in member_masses(st)}
    assert all(abs(c - 100) <= 5 * math.sqrt(100 * 27 / 28) for c in counts.values())
