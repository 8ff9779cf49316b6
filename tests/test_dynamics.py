"""Marker rotation, phase reduction, and overlap amplitudes."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from hoamp import dynamics
from hoamp.dynamics import (KernelScratch, MarkerAmplitude, OscillatorParams, PhaseDelta,
                            epsilon_batch, epsilon_overlap, eps_squared_batch,
                            phase_delta, phase_delta_batch, phase_table, phase_tables,
                            gather_phasors, target_phasors, value_digits)
from hoamp.fockoracle import rotation_frequency

PI = math.pi


def circle_distance(a, b):
    d = abs(a - b) % (2 * PI)
    return min(d, 2 * PI - d)


def phasors_of(table, values, out=None, span=None):
    """P_v per value, as the engine forms it: gather_phasors over value_digits."""
    return gather_phasors(table, value_digits(table, values, span, out=out), out=out)


def kernel_phasors(p, target, values, t, table=None):
    """Q_target * P_v, as the conditioning kernel forms it (cos Delta is its
    real part), by default with the table sized to the values."""
    if table is None:
        table = phase_table(p, t, max(abs(int(values.min())), abs(int(values.max()))))
    return phasors_of(table, values) * target_phasors(p, t, [target])[0]


def assert_matches_scalar(p, target, trials, t, tol=1e-12):
    """Batch angle, cos and sin against the exact scalar reduction."""
    batch = phase_delta_batch(p, target, trials, t)
    z = kernel_phasors(p, target, trials, t)
    cos, sin = z.real, z.imag
    for i, trial in enumerate(trials):
        exact = phase_delta(p, target, int(trial), t).angle
        assert circle_distance(batch[i], exact) < tol, (target, int(trial), t)
        assert abs(cos[i] - math.cos(exact)) < tol
        assert abs(sin[i] - math.sin(exact)) < tol


def assert_multipliers_match_scalar(p, target, values, t, table=None, alpha=1.7, tol=1e-12):
    """Kernel cos Delta and |eps|^2 against the exact scalar reduction."""
    cos = kernel_phasors(p, target, values, t, table).real
    mult = eps_squared_batch(alpha, cos)
    for v, c, m in zip(values, cos, mult):
        exact = math.cos(phase_delta(p, target, int(v), t).angle)
        assert abs(c - exact) < tol, (target, int(v), t)
        assert abs(m - math.exp(-2 * alpha * alpha * (1 - exact))) < tol, (target, int(v), t)


# wide-term inputs: K = 2 just below 2^31 (int64 differences near 2^62) and
# past it, K = 3, and K = 4 up to the signed 128-bit limit (object-dtype
# differences)
_K4_MAX = math.isqrt(math.isqrt((1 << 127) - 1))
WIDE_CASES = [
    (OscillatorParams(couplings=(0.7, 0.3)), 2_000_000_011,
     [(1 << 31) - 1, 1, 1_999_999_999, 1_234_567_890]),
    (OscillatorParams(couplings=(0.7, 0.3)), 1 << 31,
     [(1 << 31) + 12_345, 3_000_000_017, 5, (1 << 31) - 1, 1 << 32]),
    (OscillatorParams(couplings=(0.7, 0.3)), 3_037_000_000,
     [0, 1, 2_147_483_659, 3_037_000_499, 1_030_189]),
    (OscillatorParams(couplings=(0.5, 0.25, 0.125)), (1 << 42) - 77,
     [0, 3, 1 << 42, 5_000_000_000_000, 123_456_789_012]),
    (OscillatorParams(couplings=(0.9, 0.1, 0.01, 0.001)), _K4_MAX - 5,
     [_K4_MAX, 1, _K4_MAX - 1_000_000_007, 2_000_000_011, 0]),
]


def test_params_validation():
    with pytest.raises(ValueError, match="at least one coupling"):
        OscillatorParams(couplings=())
    with pytest.raises(ValueError):
        OscillatorParams(couplings=(1.0, 0.5, 0.1, 0.2, 0.3))   # K > 4
    with pytest.raises(ValueError):
        OscillatorParams(couplings=(1.0, 0.0))                  # g_K = 0
    with pytest.raises(ValueError):
        OscillatorParams(couplings=(float("nan"),))

def test_params_order_is_the_coupling_count():
    # K is a fact of the couplings: read-only, and not a separate input
    p = OscillatorParams(couplings=(0.5, 0.25))
    assert p.order == 2
    assert OscillatorParams().order == 1
    assert OscillatorParams(couplings=(0.0, 0.0, 0.0, 1.0)).order == 4
    with pytest.raises(AttributeError):
        p.order = 3
    with pytest.raises(TypeError):
        OscillatorParams(couplings=(0.5, 0.25), order=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_marker_amplitude_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        MarkerAmplitude(bad)
    with pytest.raises(ValueError, match="alpha schedule must be finite"):
        dynamics.normalize_alpha_schedule((1.0, bad))
    with pytest.raises(ValueError, match="alpha schedule must be finite"):
        dynamics.normalize_alpha_schedule(bad)


def test_rotation_frequency_linear():
    # Omega_u = marker_omega + sum_k g_k u^k, computed by the dense oracle
    p = OscillatorParams(couplings=(2.0,))
    assert rotation_frequency(p, 10) == 20.0
    assert rotation_frequency(p, 10, marker_omega=1.5) == 1.5 + 20.0


def test_rotation_frequency_higher_order():
    p = OscillatorParams(couplings=(0.5, 0.25, 0.125))
    # 0.5*4 + 0.25*16 + 0.125*64 with exact dyadic coefficients
    assert rotation_frequency(p, 4) == 2.0 + 4.0 + 8.0


def test_phase_delta_zero_at_target():
    p = OscillatorParams()
    d = phase_delta(p, 35, 35, 0.731)
    assert d.angle == 0.0
    assert d.raw_integer == 0


def test_phase_delta_sign_convention():
    # Delta = (Omega_target - Omega_trial) t: a trial above the target
    # rotates ahead, so the difference comes out negative
    p = OscillatorParams()
    d = phase_delta(p, 35, 36, 0.5)
    assert d.raw_integer == 1
    assert d.angle == pytest.approx(-0.5)


def test_phase_delta_reduces_into_half_open_interval():
    p = OscillatorParams()
    for trial in (36, 40, 100, 10_000):
        for t in (0.1, 1.0, 2.9, 6.2, 100.37):
            a = phase_delta(p, 35, trial, t).angle
            assert -PI <= a <= PI   # float(pi) rounds the open endpoint in


def test_phase_delta_mod_two_pi():
    # an angle past -pi comes back as its (-pi, pi] representative
    p = OscillatorParams()
    got = phase_delta(p, 0, 1, 3.491853071795859).angle
    assert got == pytest.approx(2 * PI - 3.491853071795859, abs=1e-15)


def test_phase_delta_exact_multiple_of_two_pi():
    # raw = 2^20 * (2 pi / 2^20) accumulates no representable residue > tiny
    p = OscillatorParams()
    t = 2.0 * PI
    a = phase_delta(p, 0, 1, t).angle
    b = dynamics._reduce_fraction(Fraction(t))
    assert abs(a) < 3e-16          # |fl(2pi) - 2pi|
    assert abs(b) < 3e-16
    assert a == -b                 # same residual, opposite orientation


def test_phase_delta_batch_matches_scalar():
    p = OscillatorParams(couplings=(0.7, 0.3))
    trials = np.array([3, 5, 8, 34, 35, 36, 1000, 44721], dtype=np.int64)
    for t in (0.013, 1.704, 5.0, 6.046):
        batch = phase_delta_batch(p, 35, trials, t)
        for i, trial in enumerate(trials):
            exact = phase_delta(p, 35, int(trial), t).angle
            # circle distance: both are (-pi, pi] representatives
            diff = abs(batch[i] - exact)
            assert min(diff, 2 * PI - diff) < 1e-12


def test_phase_delta_batch_large_terms():
    p = OscillatorParams()
    trials = np.array([1_030_189, 348_547_955, 123_456_789], dtype=np.int64)
    batch = phase_delta_batch(p, 1_030_189, trials, 6.046)
    for i, trial in enumerate(trials):
        exact = phase_delta(p, 1_030_189, int(trial), 6.046).angle
        diff = abs(batch[i] - exact)
        assert min(diff, 2 * PI - diff) < 1e-11


def test_epsilon_overlap_exact_one_cases():
    assert epsilon_overlap(MarkerAmplitude(2.0), 0.0) == 1.0 + 0.0j
    assert epsilon_overlap(MarkerAmplitude(0.0), 1.3) == 1.0 + 0.0j


def test_epsilon_overlap_closed_form():
    alpha = MarkerAmplitude(1.7)
    for ang in (0.2, -2.9, PI, 1e-8):
        eps = epsilon_overlap(alpha, ang)
        a2 = 1.7 * 1.7
        want = np.exp(-a2 * (1 - np.exp(1j * ang)))
        assert abs(eps - want) < 1e-15
        assert abs(abs(eps) ** 2 - math.exp(-2 * a2 * (1 - math.cos(ang)))) < 1e-15


def test_epsilon_magnitude_strictly_below_one_off_resonance():
    alpha = MarkerAmplitude(2.0)
    for ang in (0.05, 0.5, 1.0, 3.0):
        assert abs(epsilon_overlap(alpha, ang)) < 1.0


def test_epsilon_batch_agrees_with_scalar():
    angles = np.array([0.0, 0.3, -1.2, PI, -PI + 1e-12])
    eb = epsilon_batch(1.3, np.cos(angles), np.sin(angles))
    sq = eps_squared_batch(1.3, np.cos(angles))
    for i, a in enumerate(angles):
        s = epsilon_overlap(MarkerAmplitude(1.3), float(a))
        assert abs(eb[i] - s) < 1e-15
        assert abs(sq[i] - abs(s) ** 2) < 1e-15
    assert eb[0] == 1.0 + 0.0j         # exact at zero


def test_eps_squared_batch_reuses_buffer():
    angles = np.array([0.1, 0.2, 0.3])
    out = np.empty(3)
    res = eps_squared_batch(2.0, np.cos(angles), out=out)
    assert res is out


def test_eps_squared_batch_clamps_rounding_above_one():
    # a product of unit phasors can round cos a hair above 1: |eps|^2 stays 1
    cos = np.array([1.0 + 2.2e-16, 1.0, 1.0 + 4.4e-16, 0.5])
    w = eps_squared_batch(2.0, cos)
    assert w[:3].tolist() == [1.0, 1.0, 1.0] and 0.0 < w[3] < 1.0


def test_reduce_angle_boundary():
    reduce = dynamics._reduce_fraction
    assert reduce(Fraction(PI)) == PI       # pi stays pi, not -pi
    # -float(pi) sits strictly inside (-pi, pi] because float(pi) < pi,
    # so it must come back unchanged rather than folded to +pi
    assert reduce(Fraction(-PI)) == -PI
    assert reduce(Fraction(0)) == 0.0


def test_phase_delta_overflow_guard():
    p = OscillatorParams(couplings=(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(OverflowError):
        phase_delta(p, 0, 1 << 32, 1.0)           # (2^32)^4 = 2^128 overflows
    with pytest.raises(OverflowError):
        phase_delta_batch(p, 0, np.array([1 << 32]), 1.0)


@pytest.mark.parametrize("p,target,trials", WIDE_CASES)
def test_phase_delta_batch_wide_terms_match_scalar(p, target, trials):
    trials = np.array(trials, dtype=np.int64)
    for t in (0.013, 1.704, 6.046, 97.31):
        assert_matches_scalar(p, target, trials, t)


@pytest.mark.parametrize("p,target,trials", WIDE_CASES + [
    (OscillatorParams(), 1_030_189, [3, 1_030_188, 348_547_955, (1 << 40) + 3])])
def test_value_phasor_multipliers_match_scalar(p, target, trials):
    # K = 1..4, both signs in one call, int64 and object-dtype powers
    values = np.array(trials + [-x for x in trials], dtype=np.int64)
    for t in (0.013, 1.704, 6.046, 97.31):
        assert_multipliers_match_scalar(p, target, values, t)
        assert_multipliers_match_scalar(p, -target, values, t)


def test_target_phasors_reduce_exactly():
    # Q_a carries the exactly reduced angle of sum_k g_k t a^k
    for p, target, _ in WIDE_CASES:
        for t in (0.013, 6.046, 97.31):
            q = target_phasors(p, t, [target, -target, 0, 1])
            for a, z in zip((target, -target, 0, 1), q):
                exact = phase_delta(p, a, 0, t).angle
                assert abs(z.real - math.cos(exact)) < 3e-16
                assert abs(z.imag - math.sin(exact)) < 3e-16
            assert q[2] == 1.0
    with pytest.raises(OverflowError):
        target_phasors(OscillatorParams(couplings=(0.0, 0.0, 0.0, 1.0)), 1.0, [1 << 32])


def test_phasor_sign_of_negative_values():
    # a negative v^k conjugates its order's factor: for K = 1, -v gives the
    # conjugate of P_v bit for bit
    p = OscillatorParams()
    above = np.array([36, 1_000, 123_456_789, (1 << 40) + 3], dtype=np.int64)
    for t in (0.4, 2.9, 5.3):
        table = phase_table(p, t, int(above.max()))
        up = phasors_of(table, above)
        assert np.array_equal(phasors_of(table, -above), np.conj(up))
        assert_matches_scalar(p, 35, above, t)
        assert_matches_scalar(p, 35, -above, t)
        assert_matches_scalar(p, -35, 70 - above, t)
    # even orders keep their sign; odd orders flip it
    mixed = np.array([-1_234_567, -3, 0, 2, 999_999], dtype=np.int64)
    for p in (OscillatorParams(couplings=(0.7, 0.3)),
              OscillatorParams(couplings=(0.5, 0.25, 0.125))):
        for t in (0.4, 5.3):
            assert_matches_scalar(p, -17, mixed, t)


def test_phasor_near_digit_resonances():
    # t near a multiple of 2*pi/B^j puts B^j*g*t next to a turn, where the
    # table row for digit j must still be reduced exactly
    p = OscillatorParams(couplings=(1.0, 0.5))
    trials = np.array([0, 1, 8191, 8192, 8193, (1 << 26) + 5, 67_108_863, 40_000_000],
                      dtype=np.int64)
    for j in (1, 2, 3):
        for m in (1, 3, 4097):
            base = 2 * PI * m / 8192**j
            for t in (base, math.nextafter(base, 0.0), base * (1 + 1e-9)):
                assert_matches_scalar(p, 12_345_678, trials, t)


def test_zero_difference_is_exactly_one():
    # on-target entries must multiply by exactly 1.0, in every order and
    # on both the int64 and the object-dtype path
    for p, target in ((OscillatorParams(), 35),
                      (OscillatorParams(couplings=(0.3, 0.2, 0.1)), 123_456_789),
                      (OscillatorParams(couplings=(1.0, 1.0, 1.0, 1.0)), _K4_MAX)):
        trials = np.array([target, target - 1, target, 0], dtype=np.int64)
        for t in (0.37, 5.9):
            angle = phase_delta_batch(p, target, trials, t)
            assert angle[0] == 0.0 and angle[2] == 0.0 and angle[1] != 0.0
            assert not math.copysign(1.0, angle[0]) < 0   # +0.0, not -0.0
            cos, sin = np.cos(angle), np.sin(angle)
            assert cos[0] == 1.0 and sin[0] == 0.0
            assert epsilon_batch(2.0, cos[:1], sin[:1])[0] == 1.0 + 0.0j
            assert eps_squared_batch(2.0, cos[:1])[0] == 1.0


def test_phasor_value_independent_of_call():
    # a value comes out bit-identical whatever else shares the call, and in
    # any table of the same digit widths: both tables here use 11-bit digits
    # (the solver-equals-factoring embedding relies on it)
    p = OscillatorParams()
    values = np.array([3, 17, 35, 72, 1_000_003], dtype=np.int64)
    table, big = phase_table(p, 2.2, 1 << 31), phase_table(p, 2.2, 1 << 40)
    assert table.bits == big.bits == (11,)
    assert (len(table.rows[0]), len(big.rows[0])) == (3, 4)
    want = phasors_of(table, values)
    assert np.array_equal(phasors_of(big, values[:2]), want[:2])
    assert np.array_equal(phasors_of(table, values, span=(3, 1_000_003)), want)
    grid = values[None, :] + np.zeros((3, 1), dtype=np.int64)
    assert np.array_equal(phasors_of(big, grid)[1], want)


def test_value_phasors_reject_values_outside_table():
    p = OscillatorParams()
    table = phase_table(p, 1.0, 1000)          # one 10-bit row of 1001 entries
    phasors_of(table, np.array([1000, -1000]))
    with pytest.raises(IndexError):
        phasors_of(table, np.array([1 << 20]))    # no row
    for short in (1010, -1010):
        with pytest.raises(IndexError):
            phasors_of(table, np.array([short]))  # short row


# tables whose digits are narrower than 13 bits: (params, max_term, widths)
NARROW_CASES = [
    (OscillatorParams(), 9_000, (7,)),                          # two 7-bit digits
    (OscillatorParams(), 1 << 30, (11,)),                       # three 11-bit digits
    (OscillatorParams(couplings=(0.7, 0.3)), 1_000, (10, 10)),  # K = 2: one digit, two
    (OscillatorParams(couplings=(0.7, 0.3)), 9_000, (7, 9)),    # K = 2: two digits, three
]


def _iroot(x: int, k: int) -> int:
    """The largest integer v >= 0 with v**k <= x."""
    v = round(x ** (1.0 / k))
    while v**k > x:
        v -= 1
    while (v + 1) ** k <= x:
        v += 1
    return v


@pytest.mark.parametrize("p,max_term,bits", NARROW_CASES)
def test_narrow_phase_tables(p, max_term, bits):
    t = 2.7
    table = phase_table(p, t, max_term)
    assert table.bits == bits
    target = max_term - 17
    rng = np.random.default_rng(5)
    values = np.concatenate([[0, 1, max_term, -max_term, target, target + 1],
                             rng.integers(-max_term, max_term + 1, 200)])
    assert_multipliers_match_scalar(p, target, values, t, table)
    assert_multipliers_match_scalar(p, -target, values, t, table)
    # per order k: the largest |v| whose v^k the order's rows cover passes
    # that order's check, and one more fails it, or the check of the first
    # order that stops covering it
    covers = []
    for w, rows in zip(bits, table.rows):
        edge = (len(rows[-1]) << (w * (len(rows) - 1))) - 1
        covers.append(_iroot(edge, len(covers) + 1))
    for k, v in enumerate(covers, start=1):
        for covered in (v, -v):
            try:
                phasors_of(table, np.array([covered]))
            except IndexError as e:
                assert v > min(covers) and f"v^{k}|" not in str(e)
        first = next(j for j, c in enumerate(covers, start=1) if c <= v)
        for beyond in (v + 1, -(v + 1)):
            with pytest.raises(IndexError, match=rf"\|v\^{first}\|"):
                phasors_of(table, np.array([beyond]))
    largest = min(covers)
    phasors_of(table, np.array([largest, -largest]))
    # one more first-order digit than the table has
    with pytest.raises(IndexError, match=r"\|v\^1\|"):
        phasors_of(table, np.array([1 << (bits[0] * len(table.rows[0]))]))


def test_kernel_scratch_reuse_is_bitwise():
    # blocks run through one scratch, the last one short, give the values of
    # calls that allocate their own buffers, on the int64 and object paths;
    # the short block also runs first, so the buffers grow once
    for p, values, target in (
            (OscillatorParams(couplings=(0.7, 0.3)),
             np.arange(-2500, 5000, 7, dtype=np.int64), 2500),
            (OscillatorParams(couplings=(0.9, 0.1, 0.01, 0.001)),
             np.arange(_K4_MAX - 2000 * 97, _K4_MAX, 97, dtype=np.int64), _K4_MAX - 5)):
        bound = max(abs(int(values.min())), abs(int(values.max())))
        table = phase_table(p, 1.3, bound)
        q = target_phasors(p, 1.3, [target])[0]
        scratch = KernelScratch()
        starts = list(range(0, len(values), 300))
        for lo in starts[-1:] + starts:
            block = values[lo : lo + 300]
            want = phasors_of(table, block) * q
            z = phasors_of(table, block, out=scratch)
            z *= q
            assert np.array_equal(z, want)
            w = eps_squared_batch(1.5, z.real, out=scratch.get("w", block.shape))
            assert np.array_equal(w, eps_squared_batch(1.5, want.real))


@pytest.mark.parametrize("p,values", [
    (p, trials + [-x for x in trials]) for p, _, trials in WIDE_CASES] + [
    (OscillatorParams(), [3, -1_030_188, 348_547_955, -((1 << 40) + 3), 0]),
    (OscillatorParams(), list(range(-9_000, 9_001, 37))),                   # two 7-bit digits
    (OscillatorParams(couplings=(0.7, 0.3)), list(range(-1_000, 1_001, 3))),  # 10-bit rows
])
def test_digits_cut_once_serve_every_time(p, values):
    # value_digits depends on the table's layout, not on t: digits cut
    # against the table for one time, gathered against the table for
    # another, give phasors_of there bit for bit (K = 1..4, both signs,
    # int64 and object-dtype powers, narrow digits), also when the digits
    # and the phasors share one scratch
    values = np.array(values, dtype=np.int64)
    bound = max(abs(int(values.min())), abs(int(values.max())))
    digits = value_digits(phase_table(p, 0.5, bound), values)
    scratch = KernelScratch()
    shared = value_digits(phase_table(p, 0.5, bound), values, out=scratch)
    for t in (0.013, 1.704, 6.046, 97.31):
        table = phase_table(p, t, bound)
        want = phasors_of(table, values).tobytes()
        assert gather_phasors(table, digits).tobytes() == want
        assert gather_phasors(table, shared, out=scratch).tobytes() == want
    # a table built for a smaller bound does not hold the largest value
    with pytest.raises(IndexError):
        gather_phasors(phase_table(p, 0.5, bound // 2), digits)


def _gathered(digits):
    """digits with every DigitRuns position expanded back to its intp array,
    so gather_phasors gathers every position per element."""
    def expand(d):
        if not isinstance(d, dynamics.DigitRuns):
            return d
        return np.repeat(np.array(d.digits, dtype=np.intp),
                         np.diff(d.bounds)).reshape(digits.shape)
    return dynamics.ValueDigits(digits.shape, tuple(
        (k, w, top, tuple(expand(d) for d in idx), negative)
        for k, w, top, idx, negative in digits.orders))


def _runs_in(digits) -> int:
    return sum(isinstance(d, dynamics.DigitRuns) for *_, idx, _ in digits.orders for d in idx)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 3), bits=st.sampled_from([5, 13, 20, 24, 26, 26]),
       sign=st.sampled_from([1, -1]), offset=st.integers(-5_000, 5_000),
       n=st.sampled_from([1, 4_096, 9_000]), max_gap=st.sampled_from([0, 1, 1, 3, 200]),
       lone=st.sampled_from([None, None, None, 0, -1]), seed=st.integers(0, 2**32 - 1),
       shuffled=st.sampled_from([False, False, False, True]), t=st.floats(0.01, 10.0))
def test_run_wise_product_equals_per_element_gather(order, bits, sign, offset, n, max_gap,
                                                    lone, seed, shuffled, t):
    # ascending values with small gaps and wide digits give long runs of
    # equal top digits (gap 0 also in the low digits, which the run-wise
    # pass fills), and `lone` moves the first or last value into a top
    # digit of its own; shuffled ones give short runs, which keep the
    # gather.  Signed values, some crossing 0, conjugate odd orders; K = 3
    # past |v| = 2^21 takes its digits from Python ints
    rng = np.random.default_rng(seed)
    values = sign * (1 << bits) + offset + np.cumsum(rng.integers(0, max_gap + 1, n))
    if lone is not None:
        values[lone] += (1 << 16) if lone else -(1 << 16)
    if shuffled:
        rng.shuffle(values)
    p = OscillatorParams(couplings=(1.0, -0.3, 0.07)[:order])
    table = phase_table(p, t, max(abs(int(values.min())), abs(int(values.max()))))
    digits = value_digits(table, values)
    want = gather_phasors(table, _gathered(digits)).copy()
    assert gather_phasors(table, digits).tobytes() == want.tobytes()
    scratch = KernelScratch()
    got = gather_phasors(table, value_digits(table, values, out=scratch), out=scratch)
    assert got.tobytes() == want.tobytes()
    event(f"positions kept as runs: {_runs_in(digits)}")


def test_value_digits_keeps_only_long_runs_as_runs():
    # ascending keys 3 apart under a 25-bit bound: the top digit runs
    # ~2,730 keys, the low one changes every key; shuffled, or with a run of
    # one at the end, the top digit is gathered too
    table = phase_table(OscillatorParams(), 0.9, (1 << 25) - 1)
    keys = np.arange(1 << 16, dtype=np.int64) * 3 + 5_000_000
    (_, _, _, (low, top), _), = value_digits(table, keys).orders
    assert isinstance(low, np.ndarray) and isinstance(top, dynamics.DigitRuns)
    assert top.bounds[0] == 0 and top.bounds[-1] == len(keys) and len(top.digits) == 25
    assert top.digits == sorted(set((keys >> 13).tolist()))
    assert not _runs_in(value_digits(table, np.random.default_rng(0).permutation(keys)))
    lone = keys.copy()
    lone[-1] = (1 << 25) - 1
    assert not _runs_in(value_digits(table, lone))


@pytest.mark.parametrize("p,target,trials", WIDE_CASES)
def test_phase_delta_batch_never_calls_scalar(monkeypatch, p, target, trials):
    # no silent per-element fallback: the batch path must not reach the
    # scalar reduction, whatever the width of the terms
    reference = [phase_delta(p, target, int(x), 3.3).angle for x in trials]

    def forbidden(*args, **kwargs):
        raise AssertionError("phase_delta_batch fell back to the scalar path")

    monkeypatch.setattr(dynamics, "phase_delta", forbidden)
    batch = phase_delta_batch(p, target, np.array(trials, dtype=np.int64), 3.3)
    for got, want in zip(batch, reference):
        assert circle_distance(got, want) < 1e-12


def fraction_phase_table(p, t, max_term):
    """phase_table with each row's base angle B^j*g_k*t mod 2*pi reduced in
    Fraction arithmetic and each row filled on its own: the reference for
    the integer reduction and the windowed fill of phase_tables."""
    twopi = Fraction(dynamics.TWOPI_HI) + Fraction(dynamics.TWOPI_MD) + Fraction(dynamics.TWOPI_LO)
    rows_k, bits_k = [], []
    for k, g in enumerate(p.couplings, start=1):
        theta = sum(map(Fraction, dynamics._two_prod(g, t)))
        bound = max_term**k
        n_digits = max(1, -(-bound.bit_length() // 13))
        w = max(1, -(-bound.bit_length() // n_digits))
        rows = []
        for j in range(n_digits):
            r = np.arange(min((1 << w) - 1, bound >> (w * j)) + 1, dtype=np.float64)
            x = theta * (1 << (w * j))
            phi = x - round(x / twopi) * twopi
            phi_hi = float(phi)
            phi_lo = float(phi - Fraction(phi_hi))
            p_hi, p_lo = dynamics._two_prod(r, phi_hi)
            angle = dynamics._reduce_batch(p_hi, p_lo + r * phi_lo)
            row = np.empty(len(r), dtype=np.complex128)
            np.cos(angle, out=row.real)
            np.sin(angle, out=row.imag)
            np.subtract(0.0, row.imag, out=row.imag)
            rows.append(row)
        rows_k.append(rows)
        bits_k.append(w)
    return rows_k, tuple(bits_k)


def assert_tables_bitwise(table, rows_k, bits):
    # int64 views, so that -0.0 against +0.0 is a mismatch
    assert table.bits == bits
    assert [len(rows) for rows in table.rows] == [len(rows) for rows in rows_k]
    for got_rows, want_rows in zip(table.rows, rows_k):
        for got, want in zip(got_rows, want_rows):
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _limit(bits, k):
    """The largest v >= 0 with v**k < 2**bits."""
    v = int(2 ** (bits / k)) + 2
    while v**k >= 1 << bits:
        v -= 1
    return v


_COUPLING = st.floats(0.001, 3.0).flatmap(lambda g: st.sampled_from([g, -g]))


@st.composite
def table_cases(draw):
    k = draw(st.integers(1, 4))
    couplings = tuple(draw(_COUPLING) for _ in range(k))
    max_term = draw(st.one_of(st.just(0), st.integers(1, (1 << 13) - 1),
                              st.sampled_from([_limit(63, k), _limit(127, k)])))
    times = draw(st.lists(st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 1e5]),
                                    st.floats(-50.0, 50.0)), min_size=1, max_size=4))
    return OscillatorParams(couplings=couplings), max_term, times


@settings(max_examples=60, deadline=None)
@given(table_cases())
def test_phase_tables_equal_fraction_reference_bitwise(case):
    # the integer reduction and the windowed fill give the entries of the
    # per-row Fraction reduction bit for bit (K = 1..4, signed couplings and
    # times, narrow and 13-bit digits, up to the int64 and 128-bit limits),
    # and each table of a batch is phase_table at its own t
    p, max_term, times = case
    tables = phase_tables(p, times, max_term)
    assert len(tables) == len(times)
    for t, table in zip(times, tables):
        rows_k, bits = fraction_phase_table(p, t, max_term)
        assert_tables_bitwise(table, rows_k, bits)
        assert_tables_bitwise(phase_table(p, t, max_term), rows_k, bits)


def test_phase_tables_rows_own_their_entries():
    # a row holds exactly its entries: no window or padded top row is kept
    # alive through a view, so the tables take sum(row lengths) * 16 B a step
    p = OscillatorParams(couplings=(0.7, -0.3))
    max_term = 30_000_000
    tables = phase_tables(p, [0.4, -2.9, 17.0], max_term)
    for table in tables:
        lengths = []
        for k, (w, rows) in enumerate(zip(table.bits, table.rows), start=1):
            bound = max_term**k
            lengths += [min((1 << w) - 1, bound >> (w * j)) + 1 for j in range(len(rows))]
            for row in rows:
                assert row.base is None and row.flags.owndata
        assert [len(row) for rows in table.rows for row in rows] == lengths
        assert sum(row.nbytes for rows in table.rows for row in rows) == 16 * sum(lengths)
    assert phase_tables(p, [], max_term) == []


def test_phase_tables_temporaries_stay_near_one_mib():
    # the fill runs in windows of whole rows, so the memory it needs beyond
    # the tables themselves does not grow with the steps or the row count
    p = OscillatorParams(couplings=(0.9, -0.1, 0.01, 0.001))
    for n_steps in (1, 6):
        tracemalloc.start()
        try:
            tables = phase_tables(p, [0.3 + i for i in range(n_steps)], _K4_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(row.nbytes for table in tables for rows in table.rows for row in rows)
        assert size > n_steps * (2 << 20)
        assert peak - size < 1.25 * (1 << 20), (n_steps, peak - size)


@pytest.mark.parametrize("build", [
    lambda p, t: phase_table(p, t, 1000),
    lambda p, t: phase_tables(p, [0.5, t], 1000),
    lambda p, t: target_phasors(p, t, [35]),
    lambda p, t: phase_delta(p, 35, 36, t),
])
@pytest.mark.parametrize("couplings,t", [((1.0,), 1e308), ((1e200,), 1e200),
                                         ((1e-200,), 1e305), ((1.0, 1e300), 1e-3)])
def test_g_times_t_beyond_the_split_is_refused(build, couplings, t):
    # g, t or g*t past 2**996 would overflow the double-double split (or
    # g*t itself): every exact reduction refuses it by name
    with pytest.raises(ValueError, match=r"g\*t = .* 2\*\*996"):
        build(OscillatorParams(couplings=couplings), t)
    # just inside the limit the reduction runs
    build(OscillatorParams(couplings=(1.0,)), math.ldexp(1.0, 995))


def test_residue_rounds_ties_to_even_as_round_does():
    # the integer reduction picks the quotient Fraction's round() picks,
    # ties to even included
    for turn in (2, 6, 10):
        for x in range(-4 * turn, 4 * turn + 1):
            assert dynamics._residue(x, turn) == x - round(Fraction(x, turn)) * turn
