"""Exact analytic dynamics of the diagonal oscillator Hamiltonian.

Everything here is a pure function.  The model: register oscillators hold
integer occupations, a marker oscillator holds a coherent state, and the
Hamiltonian is diagonal in the number basis, so a marker attached to a
register tuple with product term u simply rotates in phase space at

    Omega_u = omega_marker + sum_k g_k * u**k .

A conditional measurement compares the marker rotated at the target's
frequency with one rotated at a trial's frequency; the overlap is

    eps = exp(-|a|^2 * (1 - exp(i*Delta))),   Delta = (Omega_target - Omega_trial) * t,

and all amplification dynamics reduce to products of these eps factors.

Phase accuracy matters: for the large factoring instance the raw phase
difference reaches ~2e9 rad, where naive double arithmetic loses ~1e-7 rad.
The scalar reference, phase_delta, multiplies each exact integer term
difference by the exact double-double value of g_k*t and reduces the
rational sum against a 2*pi accurate to ~1e-49.

The vector path reduces no phase per element.  Write each term difference
d_k = target^k - trial^k in base B_k = 2^w_k; then

    exp(i*Delta) = prod_k prod_j T_kj[digit_j(|d_k|)],   conjugated for d_k < 0,

where T_kj[r] = exp(i * r * B_k^j * g_k * t mod 2*pi).  phase_table builds
the tables once per (params, t), sized to the call: the bound on |d_k| takes
nd = ceil(bits / 13) digits, each w_k = ceil(bits / nd) bits wide, so a small
bound gets short rows and the digit count is the least that 13-bit digits
allow.  Each B_k^j*g_k*t is reduced exactly in Fraction arithmetic and kept
as a double-double, and its B_k multiples are filled by an exact two-product
and a Cody-Waite split, so every entry is within an ulp or two of the exact
angle.  phasors gathers one entry per digit and multiplies the unit phasors,
so the hot loop is gathers and multiplies with no trig call and no width
limit: differences beyond int64 (K >= 2 with large terms) have their digits
taken from Python ints in an object array.  Callers that loop over blocks
pass a KernelScratch (out=) so the blocks reuse one set of buffers.  A zero
difference gathers only T[0] = (1, 0), so on-target entries get exactly
cos = 1, sin = 0.  The batch angle agrees with phase_delta to within
2.3e-15 rad (5,120 random comparisons, K = 1..4, terms up to the int64 and
128-bit limits, with 13-bit and with narrower digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# 2*pi as a float triple (verified against an 80-digit Machin-series pi;
# residual after the three terms is ~2.2e-49)
TWOPI_HI = 6.283185307179586
TWOPI_MD = 2.4492935982947064e-16
TWOPI_LO = -5.989539619436679e-33
_TWOPI_FRACTION = Fraction(TWOPI_HI) + Fraction(TWOPI_MD) + Fraction(TWOPI_LO)

# two-constant split for the table fill: A carries 24 mantissa bits, so
# k*A is exact for quotients k < 2^29
_PI2_A = 6.283185005187988
_PI2_B = 3.019915981956753e-07
_INV_TWOPI = 0.15915494309189535

_INT128_MAX = (1 << 127) - 1
_INT64_MAX = (1 << 63) - 1
_MAX_ORDER = 4

# phasor tables index term differences by digits of at most 13 bits
_DIGIT_BITS = 13
# callers hand phasors at most this many elements at a time, so its
# temporaries stay in cache; values are element-wise, so the size changes none
KERNEL_BLOCK = 1 << 16


@dataclass(frozen=True)
class OscillatorParams:
    """Frequencies omega_j and nonlinear couplings g_1..g_K.

    The marker is by convention the last oscillator in `omega`; an empty
    `omega` means every frequency is zero (they cancel in all observables
    anyway, see phase_delta).
    """

    omega: tuple = ()
    couplings: tuple = (1.0,)
    order: int = None  # defaults to len(couplings)

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        k = len(self.couplings) if self.order is None else self.order
        object.__setattr__(self, "order", k)
        if k < 1:
            raise ValueError("order K must be >= 1")
        if k > _MAX_ORDER:
            raise ValueError(f"order K capped at {_MAX_ORDER}, got {k}")
        if len(self.couplings) != k:
            raise ValueError("couplings must have exactly K entries")
        if self.couplings[-1] == 0.0:
            raise ValueError("leading coupling g_K must be nonzero")
        for x in self.omega + self.couplings:
            if not math.isfinite(x):
                raise ValueError("frequencies and couplings must be finite")

    @property
    def marker_omega(self) -> float:
        return self.omega[-1] if self.omega else 0.0


@dataclass(frozen=True)
class RotationFrequency:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("rotation frequency must be finite")


@dataclass(frozen=True)
class PhaseDelta:
    """Reduced phase difference Delta with its defining integer.

    angle is the representative of Delta in (-pi, pi] rounded to the nearest
    double (so it lies in [-float(pi), float(pi)] numerically).  raw_integer
    keeps the first-order term difference trial - target (e.g. n*m - N) as a
    diagnostic of how far the trial sits from the target.
    """

    angle: float
    raw_integer: int


@dataclass(frozen=True)
class MarkerAmplitude:
    """Coherent amplitude alpha = magnitude * exp(i*phase)."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")

    @property
    def value(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


def normalize_alpha_schedule(sched) -> tuple:
    """Validated marker-amplitude schedule: |alpha| per iteration, as floats.

    A scalar means a constant schedule.  The schedule must be non-empty,
    non-negative and non-decreasing; its last entry repeats once exhausted.
    """
    if isinstance(sched, (int, float)):
        sched = (float(sched),)
    else:
        sched = tuple(float(a) for a in sched)
    if not sched or any(a < 0 for a in sched):
        raise ValueError("alpha schedule must be non-empty and non-negative")
    if any(b < a for a, b in zip(sched, sched[1:])):
        raise ValueError("alpha schedule must be non-decreasing")
    return sched


def alpha_at(sched: tuple, l: int) -> float:
    """|alpha| for iteration l >= 1 of a schedule from normalize_alpha_schedule."""
    return sched[min(l - 1, len(sched) - 1)]


def _int_pow_checked(base: int, k: int) -> int:
    v = base**k
    if v > _INT128_MAX or v < -_INT128_MAX - 1:
        raise OverflowError(f"{base}**{k} exceeds signed 128-bit range")
    return v


def _two_prod(a: float, b: float):
    """Exact a*b = hi + lo (Dekker/Veltkamp, no fma needed)."""
    hi = a * b
    c = 134217729.0 * a  # 2^27 + 1
    a1 = c - (c - a)
    a2 = a - a1
    c = 134217729.0 * b
    b1 = c - (c - b)
    b2 = b - b1
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return hi, lo


def _mod_twopi(x: Fraction) -> Fraction:
    """Exact x - q*2*pi with q = round(x / 2*pi), so |result| <= pi."""
    return x - round(x / _TWOPI_FRACTION) * _TWOPI_FRACTION


def _reduce_fraction(x: Fraction) -> float:
    """Nearest-double representative of x mod 2*pi in (-pi, pi]."""
    r = float(_mod_twopi(x))
    # fraction rounding can leave |r| a hair beyond float(pi); fold once
    if r > math.pi:
        r -= TWOPI_HI
    elif r < -math.pi:
        r += TWOPI_HI
    return r


def reduce_angle(x: float) -> float:
    """Reduce a plain double angle to (-pi, pi] (for marker phases etc.)."""
    if -math.pi < x <= math.pi:
        return x
    return _reduce_fraction(Fraction(x))


def rotation_frequency(params: OscillatorParams, product_term: int) -> RotationFrequency:
    """Omega for the marker attached to a register product term."""
    if product_term < 0:
        raise ValueError("product term must be a non-negative integer")
    terms = [params.marker_omega]
    for k, g in enumerate(params.couplings, start=1):
        terms.append(g * _int_pow_checked(product_term, k))
    return RotationFrequency(math.fsum(terms))


def phase_delta(params: OscillatorParams, target_term: int, trial_term: int, t: float) -> PhaseDelta:
    """Delta = (Omega_target - Omega_trial) * t, reduced to (-pi, pi].

    The marker frequency cancels in the difference, so only the couplings
    enter.  Each term difference target^k - trial^k is carried as an exact
    integer (checked 128-bit), multiplied by the exact rational value of
    g_k * t, and the sum is reduced against a ~160-bit 2*pi, keeping the
    reduction error far below the 1e-9 contract even at |raw| ~ 2^60.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    total = Fraction(0)
    for k, g in enumerate(params.couplings, start=1):
        d = _int_pow_checked(target_term, k) - _int_pow_checked(trial_term, k)
        if d:
            hi, lo = _two_prod(g, t)
            total += (Fraction(hi) + Fraction(lo)) * d
    angle = _reduce_fraction(total) if total else 0.0
    return PhaseDelta(angle=angle, raw_integer=trial_term - target_term)


def _reduce_batch(raw_hi, raw_lo):
    # Cody-Waite with the 24-bit leading constant; exact k*_PI2_A for k < 2^29
    k = np.rint(raw_hi * _INV_TWOPI)
    r = ((raw_hi - k * _PI2_A) - k * _PI2_B) + raw_lo
    r = np.where(r > math.pi, r - TWOPI_HI, r)
    r = np.where(r < -math.pi, r + TWOPI_HI, r)
    return r


@dataclass(frozen=True)
class PhaseTable:
    """cos and sin of r * B^j * g_k * t mod 2*pi, for digits r < B = 2^bits[k-1].

    cos[k-1][j] and sin[k-1][j] are the rows for order k and digit position
    j, holding every digit value a |target^k - trial^k| can take with terms
    up to the max_term the table was built for; bits[k-1] is the digit width
    of order k.  Read-only once built, so worker threads share it.
    """

    cos: tuple
    sin: tuple
    bits: tuple


def phase_table(params: OscillatorParams, t: float, max_term: int) -> PhaseTable:
    """Phasor tables for (params, t), covering terms with |term| <= max_term.

    Raises OverflowError where phase_delta would: max_term**K past 128 bits.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    cos_k, sin_k, bits_k = [], [], []
    for k, g in enumerate(params.couplings, start=1):
        hi, lo = _two_prod(g, t)
        theta = Fraction(hi) + Fraction(lo)
        bound = 2 * _int_pow_checked(max_term, k)     # >= |target^k - trial^k|
        n_digits = max(1, -(-bound.bit_length() // _DIGIT_BITS))
        w = max(1, -(-bound.bit_length() // n_digits))
        cos_j, sin_j = [], []
        for j in range(n_digits):
            # digit values reachable at position j: the top row is short
            r = np.arange(min((1 << w) - 1, bound >> (w * j)) + 1, dtype=np.float64)
            phi = _mod_twopi(theta * (1 << (w * j)))
            phi_hi = float(phi)
            phi_lo = float(phi - Fraction(phi_hi))
            p_hi, p_lo = _two_prod(r, phi_hi)      # r * phi_hi exactly
            angle = _reduce_batch(p_hi, p_lo + r * phi_lo)
            cos_j.append(np.cos(angle))            # r = 0 gives exactly (1, +0)
            sin_j.append(np.sin(angle))
        cos_k.append(tuple(cos_j))
        sin_k.append(tuple(sin_j))
        bits_k.append(w)
    return PhaseTable(cos=tuple(cos_k), sin=tuple(sin_k), bits=tuple(bits_k))


class KernelScratch:
    """Work buffers for term_differences, phasors and eps_squared_batch.

    A loop over blocks of up to `size` elements passes one scratch as out=
    to each call, so the blocks reuse the same buffers instead of allocating
    their temporaries afresh.  Buffers are made on first use, one per name;
    results returned from a call are views into them, valid until the next
    call with the same scratch.
    """

    def __init__(self, size: int):
        self.size = size
        self._bufs = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None:
            buf = self._bufs[name] = np.empty(self.size, dtype=dtype)
        return buf[: math.prod(shape)].reshape(shape)


def _int_array(terms) -> np.ndarray:
    arr = np.asarray(terms)
    return arr if arr.dtype.kind in "iu" else arr.astype(np.int64)


def _max_abs_term(target_term: int, trials: np.ndarray) -> int:
    if not trials.size:
        return abs(target_term)
    return max(abs(target_term), abs(int(trials.max())), abs(int(trials.min())))


def term_differences(order: int, target_term: int, trial_terms, out=None) -> list:
    """[target^k - trial^k for k = 1..order] as arrays shaped like trial_terms.

    int64 where every difference fits, written into `out` (a KernelScratch)
    when given; else object arrays of Python ints.
    """
    trials = _int_array(trial_terms)
    if 2 * _int_pow_checked(_max_abs_term(target_term, trials), order) <= _INT64_MAX:
        dtype = np.int64
        ws = KernelScratch(trials.size) if out is None else out
        diffs = [ws.get(f"d{k}", trials.shape, dtype) for k in range(1, order + 1)]
    else:
        dtype, trials = object, trials.astype(object)
        diffs = [None] * order
    power = trials
    for k in range(2, order + 1):      # the powers first, each from the last
        power = diffs[k - 1] = np.multiply(power, trials, out=diffs[k - 1], dtype=dtype)
    for k in range(1, order + 1):
        diffs[k - 1] = np.subtract(target_term**k, trials if k == 1 else diffs[k - 1],
                                   out=diffs[k - 1], dtype=dtype)
    return diffs


def _complex_mul(c, s, c2, s2, t):
    """(c + i s) *= (c2 + i s2), in place; overwrites s2 and t."""
    np.multiply(c, s2, out=t)
    c *= c2
    c -= np.multiply(s, s2, out=s2)
    s *= c2
    s += t


def _digit(mag, shift: int, mask, out):
    """The digit of |d| at bit `shift`, masked unless it is the top digit."""
    if mag.dtype == object:
        d = mag >> shift
        np.copyto(out, d if mask is None else d & mask, casting="unsafe")
        return out
    if not shift and mask is None:
        return mag
    src = np.right_shift(mag, shift, out=out) if shift else mag
    return src if mask is None else np.bitwise_and(src, mask, out=out)


def phasors(table: PhaseTable, diffs, out=None) -> tuple:
    """(cos Delta, sin Delta) from the term differences d_k = target^k - trial^k.

    diffs[k-1] holds d_k (int64 or object array, as term_differences gives).
    One table entry is gathered per digit of |d_k| (table.bits[k-1] bits
    wide), and the unit phasors are multiplied in digit order; the sign of
    d_k conjugates, i.e. negates only sin.  Each element's arithmetic is
    independent of the others, so a value comes out bit-identical in any
    call that contains it, given tables of the same digit widths.  The
    results are views into `out` (a KernelScratch) when given.  A difference
    beyond the range the table was built for raises IndexError.
    """
    shape = np.shape(diffs[0])
    ws = KernelScratch(math.prod(shape)) if out is None else out
    mag, digit = ws.get("mag", shape, np.int64), ws.get("digit", shape, np.intp)
    cos = sin = None
    for k, d in enumerate(diffs):
        w, rows_c, rows_s = table.bits[k], table.cos[k], table.sin[k]
        mag_k = np.abs(d) if d.dtype == object else np.abs(d, out=mag)
        top = int(mag_k.max()) if mag_k.size else 0
        n_digits = -(-top.bit_length() // w)
        if not n_digits:    # every d_k is zero
            continue
        if n_digits > len(rows_c) or top >> (w * (n_digits - 1)) >= len(rows_c[n_digits - 1]):
            raise IndexError(f"|d_{k + 1}| = {top} is beyond the phase table")
        # the first order accumulates straight into the result
        c, s = (ws.get("cos", shape), ws.get("sin", shape)) if cos is None else \
            (ws.get("c", shape), ws.get("s", shape))
        for j in range(n_digits):
            idx = _digit(mag_k, w * j, (1 << w) - 1 if j < n_digits - 1 else None, digit)
            cj, sj = (c, s) if j == 0 else (ws.get("cj", shape), ws.get("sj", shape))
            rows_c[j].take(idx, out=cj, mode="wrap")     # range checked above
            rows_s[j].take(idx, out=sj, mode="wrap")
            if j:
                _complex_mul(c, s, cj, sj, ws.get("tmp", shape))
        # conjugate where d_k < 0 (a multiply: sign masks mispredict)
        np.multiply(s, np.sign(d, out=digit, casting="unsafe"), out=s, casting="unsafe")
        if cos is None:
            cos, sin = c, s
        else:
            _complex_mul(cos, sin, c, s, ws.get("tmp", shape))
    if cos is None:
        cos, sin = ws.get("cos", shape), ws.get("sin", shape)
        cos.fill(1.0)
        sin.fill(0.0)
    # a product of unit phasors can round a hair above 1
    if cos.size and cos.max() > 1.0:
        np.minimum(cos, 1.0, out=cos)
    return cos, sin


def phasor_batch(params: OscillatorParams, target_term: int, trial_terms,
                 t: float) -> tuple:
    """(cos Delta, sin Delta) for one target against an array of trial terms."""
    trials = _int_array(trial_terms)
    table = phase_table(params, t, _max_abs_term(target_term, trials))
    return phasors(table, term_differences(params.order, target_term, trials))


def phase_delta_batch(params: OscillatorParams, target_term: int, trial_terms,
                      t: float) -> np.ndarray:
    """Vectorized phase_delta: the angle of phasor_batch, in [-pi, pi]."""
    cos, sin = phasor_batch(params, target_term, trial_terms, t)
    return np.arctan2(sin, cos)


def epsilon_overlap(alpha: MarkerAmplitude, delta) -> complex:
    """eps = exp(-|a|^2 (1 - e^{i Delta})); equals 1+0j exactly at Delta = 0.

    `delta` may be a PhaseDelta or a plain angle in radians.
    """
    angle = delta.angle if isinstance(delta, PhaseDelta) else float(delta)
    a2 = alpha.magnitude * alpha.magnitude
    if a2 == 0.0 or angle == 0.0:
        return complex(1.0, 0.0)
    mag = math.exp(-a2 * (1.0 - math.cos(angle)))
    ph = a2 * math.sin(angle)
    return complex(mag * math.cos(ph), mag * math.sin(ph))


def epsilon_batch(alpha_mag: float, cos, sin) -> np.ndarray:
    """Vectorized complex eps from cos Delta and sin Delta.

    Conditioning needs only |eps|^2 (eps_squared_batch); this is the complex
    counterpart of epsilon_overlap, kept for checks against it.
    """
    a2 = alpha_mag * alpha_mag
    mag = np.exp(-a2 * (1.0 - np.asarray(cos, dtype=np.float64)))
    ph = a2 * np.asarray(sin, dtype=np.float64)
    return mag * (np.cos(ph) + 1j * np.sin(ph))


def eps_squared_batch(alpha_mag: float, cos, out=None) -> np.ndarray:
    """|eps|^2 = exp(-2 |a|^2 (1 - cos Delta)), elementwise from cos Delta."""
    a2 = alpha_mag * alpha_mag
    w = np.subtract(cos, 1.0, out=out)
    w *= 2.0 * a2
    return np.exp(w, out=w)
