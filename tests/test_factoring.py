"""Factoring driver: schedules, iteration records, full runs."""

import math
import sys
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from hoamp.dynamics import KERNEL_BLOCK, MarkerAmplitude, OscillatorParams
from hoamp.errors import DomainError, NoFactorInRange
from hoamp.factoring import (STREAM_SAMPLE, STREAM_TIMES, FactoringConfig,
                             estimate_iterations, replay_table1, run_factoring,
                             run_iteration, sample_times, TABLE1_N, TABLE1_ROWS,
                             TABLE1_TIMES)
from hoamp import ensemble
from hoamp.ensemble import (ProductStream, conditional_update, init_uniform_factoring,
                            member_masses, sample, trial_rectangle)
from hoamp.rng import SplitMix64


def test_config_defaults_and_validation():
    c = FactoringConfig(N=35)
    assert c.alpha_schedule == (2.0,)
    assert c.alpha_for(1) == 2.0
    assert c.alpha_for(99) == 2.0              # last entry repeats forever
    c2 = FactoringConfig(N=35, alpha_schedule=(1.0, 1.5, 2.0))
    assert c2.alpha_for(2) == 1.5
    assert c2.alpha_for(10) == 2.0
    with pytest.raises(ValueError):
        FactoringConfig(N=35, alpha_schedule=(2.0, 1.0))   # decreasing
    c3 = FactoringConfig(N=35, alpha_schedule=3)           # scalar coerced
    assert c3.alpha_schedule == (3.0,)


def test_sample_times_seeded_deterministic():
    a = list(t for t, _ in zip(sample_times("seeded", 5, 1.0), range(8)))
    b = list(t for t, _ in zip(sample_times("seeded", 5, 1.0), range(8)))
    assert a == b
    assert all(0.0 <= t < 2.0 * math.pi for t in a)
    # time scale stretches with 1/g
    c = list(t for t, _ in zip(sample_times("seeded", 5, 0.5), range(8)))
    assert c == [2.0 * t for t in a]


def test_sample_times_explicit_sequence():
    assert list(sample_times((0.5, 1.5), 0, 1.0)) == [0.5, 1.5]


def test_sample_times_bad_scale():
    with pytest.raises(DomainError):
        next(sample_times("seeded", 0, 0.0))


def test_estimate_iterations():
    # amplifying 1/28 by lambda-bar = 5 per step needs ceil(ln 28 / ln 5) = 3
    assert estimate_iterations(1.0 / 28.0, 5.0) == 3
    assert estimate_iterations(2.883e-9, 7.0) == math.ceil(
        math.log(1 / 2.883e-9) / math.log(7.0))
    with pytest.raises(DomainError):
        estimate_iterations(0.0, 2.0)
    with pytest.raises(DomainError):
        estimate_iterations(0.5, 1.0)


def test_run_iteration_lambda_is_exact_inverse():
    st = init_uniform_factoring(35)
    config = FactoringConfig(N=35)
    post, rec = run_iteration(st, config, 1, 1.0)
    assert post is st           # conditioned in place
    # lambda is the float inverse of Pr: the product is 1 to within an ulp
    assert abs(rec.lambda_l * rec.pr_E - 1.0) < 1e-15
    assert rec.C_l == rec.pr_E
    assert post.total_mass() == post.total == rec.C_l


def test_run_factoring_n35():
    report = run_factoring(FactoringConfig(N=35, seed=0, L_max=25,
                                           stop_fidelity=0.999))
    assert report.initial_fidelity == pytest.approx(1 / 28, rel=1e-12)
    fids = [r.fidelity for r in report.records]
    assert all(b >= a for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.999
    assert report.final_fidelity == fids[-1]
    assert report.sampled_factors == (5, 7)
    assert report.config["N"] == 35


def test_run_factoring_respects_explicit_times():
    times = (1.0, 0.4, 2.2)
    report = run_factoring(FactoringConfig(N=35, times=times, L_max=3,
                                           stop_fidelity=1.0))
    assert [r.t_l for r in report.records] == list(times)


def test_run_factoring_seed_changes_times_not_outcome():
    r1 = run_factoring(FactoringConfig(N=143, seed=1, stop_fidelity=0.999))
    r2 = run_factoring(FactoringConfig(N=143, seed=2, stop_fidelity=0.999))
    assert [x.t_l for x in r1.records] != [x.t_l for x in r2.records]
    assert r1.sampled_factors == r2.sampled_factors == (11, 13)


def test_run_factoring_reproducible():
    a = run_factoring(FactoringConfig(N=221, seed=9))
    b = run_factoring(FactoringConfig(N=221, seed=9))
    assert [r.pr_E for r in a.records] == [r.pr_E for r in b.records]
    assert a.sampled_tuple == b.sampled_tuple


def test_run_factoring_prime_raises():
    with pytest.raises(NoFactorInRange):
        run_factoring(FactoringConfig(N=37))


def test_run_iteration_without_factor_bin_raises_before_conditioning():
    # 37 is no product of the N = 35 rectangle: refused, the state untouched
    st = init_uniform_factoring(35)
    saved = st.mass.tobytes()
    with pytest.raises(NoFactorInRange):
        run_iteration(st, FactoringConfig(N=37), 1, 1.0)
    assert st.mass.tobytes() == saved and st.total == 1.0


def test_run_factoring_semiprime_large_alpha_schedule():
    report = run_factoring(FactoringConfig(N=667, alpha_schedule=(1.0, 2.0, 3.0),
                                           seed=4, L_max=30, stop_fidelity=0.999))
    assert report.sampled_factors == (23, 29)
    assert [r.alpha_mag for r in report.records[:3]] == [1.0, 2.0, 3.0]


def test_table1_constants_are_consistent():
    assert TABLE1_N == 1_030_189
    assert len(TABLE1_ROWS) == 15
    assert len(TABLE1_TIMES) == 15
    # fidelity gain per step tracks 1/Pr: F_l / F_{l-1} ~ lambda_l
    for (f_prev, _, _), (f_next, pr, _) in zip(TABLE1_ROWS[:-2], TABLE1_ROWS[1:-1]):
        assert f_next / f_prev == pytest.approx(1.0 / pr, rel=0.05)


def _factor_fidelity(state, N):
    """Uhlmann fidelity (sum_f sqrt(p_f / k))^2 to the k factor pairs of N,
    with p_f each pair's probability in the state."""
    bins = np.flatnonzero(state.keys == N)
    shares = [p for (n, m), p in member_masses(state, bins) if n * m == N]
    acc = 0.0
    for p in shares:
        acc += math.sqrt((1.0 / len(shares)) * p)
    return min(acc * acc, 1.0)


def _stored_run(config):
    """The stored-state loop: conditional_update and sample on a whole
    TrialEnsemble, the fidelity summed over the factor pairs' masses.
    (t, Pr, C, F, resonant) per step, the initial fidelity and the sampled
    tuple."""
    state = init_uniform_factoring(config.N)
    master = SplitMix64(config.seed)
    times = sample_times(config.times, master.derive(STREAM_TIMES),
                         abs(config.params.couplings[0]))
    f0 = _factor_fidelity(state, config.N)
    records = []
    for l, t in enumerate(islice(times, config.L_max), start=1):
        out = conditional_update(state, config.params, MarkerAmplitude(config.alpha_for(l)),
                                 config.N, t, in_place=True)
        f = _factor_fidelity(out.post_state, config.N)
        records.append((t, out.probability, out.normalization, f,
                        out.probability > 0.999 and f < config.stop_fidelity))
        if f >= config.stop_fidelity:
            break
    return records, f0, sample(state, SplitMix64(master.derive(STREAM_SAMPLE)))


@pytest.mark.parametrize("threads,kwargs", [
    (1, dict(N=35, seed=7)),
    (1, dict(N=899, times=(1.0, 0.4, 2.2, 5.9, 0.9, 1.7, 3.3), stop_fidelity=1.0)),
    (2, dict(N=899, params=OscillatorParams(couplings=(1.0, 0.5)), seed=2)),
    (1, dict(N=1_001, alpha_schedule=(1.0, 1.5, 2.0), seed=5, stop_fidelity=0.999)),
    (1, dict(N=50_000, seed=3)),
    (2, dict(N=50_000, seed=3)),
])
def test_streamed_run_equals_stored_loop_bitwise(threads, kwargs, monkeypatch):
    # N = 50,000 has 1.41M product bins, more than one conditioning chunk;
    # N = 1,001 has three factor pairs in its on-target bin
    monkeypatch.setenv("HOAMP_THREADS", str(threads))
    config = FactoringConfig(**kwargs)
    report = run_factoring(config)
    records, f0, drawn = _stored_run(config)
    assert [(r.t_l, r.pr_E, r.C_l, r.fidelity, r.resonant) for r in report.records] == records
    assert report.initial_fidelity == f0
    assert report.sampled_tuple == drawn
    if config.stop_fidelity < 1.0:
        # the stop fired: the records end at the first step past it
        assert len(records) < config.L_max and records[-1][3] >= config.stop_fidelity


def test_streamed_run_equals_stored_loop_past_int64(monkeypatch):
    # K = 3: the cubes of the last block's keys pass int64, so that block's
    # digits come from Python ints, cut once for every step of the pass
    monkeypatch.setenv("HOAMP_THREADS", "2")
    rect = trial_rectangle(35_000)
    assert (rect.n_hi * rect.m_hi) ** 3 > 2**63
    config = FactoringConfig(N=35_000, params=OscillatorParams(couplings=(1.0, 0.5, 0.25)),
                             seed=2, L_max=4, stop_fidelity=1.0)
    report = run_factoring(config)
    records, f0, drawn = _stored_run(config)
    assert [(r.t_l, r.pr_E, r.C_l, r.fidelity, r.resonant) for r in report.records] == records
    assert report.initial_fidelity == f0 and report.sampled_tuple == drawn


@pytest.mark.parametrize("steps", [[], [(0.9, 2.0)], [(0.9, 2.0), (4.1, 1.5), (-2.2, 2.0)]])
def test_stream_builds_its_tables_in_one_call(monkeypatch, steps):
    # one phase_tables call builds every step's table, none through
    # phase_table; with no steps no table is built
    calls = {"phase_tables": [], "phase_table": []}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(ensemble, name), _log=log, **kwargs):
            result = _fn(*args, **kwargs)
            _log.append(result)
            return result
        monkeypatch.setattr(ensemble, name, counted)
    stream = ProductStream(trial_rectangle(899), OscillatorParams(), 899, steps)
    assert calls["phase_table"] == []
    (tables,) = calls["phase_tables"]
    assert len(tables) == len(steps)
    assert all(mine is built for (mine, _, _), built in zip(stream._steps, tables))


def test_streamed_pass_cuts_digits_once_per_block(monkeypatch):
    # the digits of a block's keys do not depend on t: the pass cuts them
    # once per block and gathers phasors once per block and step; a draw
    # cuts its block's digits once
    calls = {"value_digits": [], "gather_phasors": []}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(ensemble, name), _log=log, **kwargs):
            _log.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ensemble, name, counted)
    monkeypatch.setenv("HOAMP_THREADS", "2")
    steps = [(0.9, 2.0), (4.1, 1.5), (2.2, 2.0)]
    stream = ProductStream(trial_rectangle(50_000), OscillatorParams(), 50_000, steps)
    blocks = len(stream.starts)
    assert blocks == 22
    assert len(calls["value_digits"]) == blocks
    assert len(calls["gather_phasors"]) == blocks * len(steps)
    stream.sample(2, SplitMix64(5))
    assert len(calls["value_digits"]) == blocks + 1
    assert len(calls["gather_phasors"]) == blocks * len(steps) + 2


def test_streamed_draws_equal_stored_draws_at_every_step():
    # 1.41M product bins in 22 blocks, barely conditioned: the draws spread
    # over the blocks, and each must come from the state after its own step
    rect = trial_rectangle(50_000)
    steps = [(0.9, 2.0), (4.1, 1.5)]
    stream = ProductStream(rect, OscillatorParams(), 50_000, steps)
    state = init_uniform_factoring(50_000)
    for l in range(len(steps) + 1):
        if l:
            t, amag = steps[l - 1]
            state = conditional_update(state, OscillatorParams(), MarkerAmplitude(amag),
                                       50_000, t).post_state
        assert stream.total(l) == state.total
        draws = [stream.sample(l, SplitMix64(seed)) for seed in range(12)]
        assert draws == [sample(state, SplitMix64(seed)) for seed in range(12)]
        bins = np.searchsorted(state.keys, [n * m for n, m in draws])
        assert len(set((bins // KERNEL_BLOCK).tolist())) > 3


def test_streamed_run_memory_is_a_fraction_of_the_stored_state(monkeypatch):
    # a stored state at N = 205,193 keeps keys, counts and mass for its
    # 11,335,082 product bins: 16 B each.  Each worker holds a scratch and
    # its share of the backlog, so the thread count is fixed here
    monkeypatch.setenv("HOAMP_THREADS", "2")
    stored_bytes = 16 * 11_335_082
    tracemalloc.start()
    try:
        report = run_factoring(FactoringConfig(N=205_193, seed=7, L_max=3,
                                               stop_fidelity=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 3
    assert peak < stored_bytes / 4


def test_streamed_run_under_thread_contention(monkeypatch):
    # more workers than cores, switching threads every microsecond: a block
    # sum lost or written to the wrong block would change the records
    config = FactoringConfig(N=50_000, seed=11, L_max=4, stop_fidelity=1.0)
    monkeypatch.setenv("HOAMP_THREADS", "1")
    want = run_factoring(config)
    monkeypatch.setenv("HOAMP_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_factoring(config)
    finally:
        sys.setswitchinterval(interval)
    assert got.records == want.records and got.sampled_tuple == want.sampled_tuple
