"""Exact analytic dynamics of the diagonal oscillator Hamiltonian.

Everything here is a pure function.  The model: register oscillators hold
integer occupations, a marker oscillator holds a coherent state, and the
Hamiltonian is diagonal in the number basis, so a marker attached to a
register tuple with product term u simply rotates in phase space at

    Omega_u = sum_k g_k * u**k .

The oscillators' own frequencies and the phase of alpha would add the same
rotation to every branch, so they cancel in every overlap below and are
taken as zero (tests/test_fockoracle.py checks this against the dense
physics with nonzero frequencies).

A conditional measurement compares the marker rotated at the target's
frequency with one rotated at a trial's frequency; the overlap is

    eps = exp(-|a|^2 * (1 - exp(i*Delta))),   Delta = (Omega_target - Omega_trial) * t,

and all amplification dynamics reduce to products of these eps factors.

Phase accuracy matters: for the large factoring instance the raw phase
difference reaches ~2e9 rad, where naive double arithmetic loses ~1e-7 rad.
The scalar reference, phase_delta, multiplies each exact integer term
difference by the exact double-double value of g_k*t and reduces the
rational sum against a 2*pi accurate to ~1e-49.

The vector path reduces no phase per element.  Delta splits into a target
part and a value part, exp(i*Delta) = Q_a * P_v with

    Q_a = exp(+i * sum_k g_k t a^k),   P_v = exp(-i * sum_k g_k t v^k),

so a conditioning step needs one scalar Q for its target and one phasor per
distinct trial value.  target_phasors reduces each Q_a exactly, in integer
arithmetic over the same double-double g_k*t and 2*pi, to the angle
phase_delta gives.  For P_v write each |v^k| in base B_k = 2^w_k; then

    P_v = prod_k prod_j T_kj[digit_j(|v^k|)],   conjugated per order where v^k < 0,

where T_kj[r] = exp(-i * (r * B_k^j * g_k * t mod 2*pi)), one complex128
entry.  phase_tables builds the tables of every time of a run in one pass
(phase_table is its one-time call), sized to the call: the largest |v^k|
takes nd = ceil(bits / 13) digits, each w_k = ceil(bits / nd) bits wide,
so a small bound gets short rows and the digit count is the least that
13-bit digits allow.  Each B_k^j*g_k*t is reduced exactly in integer
arithmetic: the double-double of g_k*t and the 2*pi triple share one
power-of-two denominator, so rounding the quotient is one divmod, and the
residue is kept as a double-double by correctly rounded int / int
division.  Its B_k multiples are filled, for all the rows at once, by an
exact two-product and a Cody-Waite split, so every entry is within an ulp
or two of the exact angle.  The split needs |g_k|, |t| and |g_k*t| below
2^996; every exact reduction refuses larger ones.  P_v takes two steps.
value_digits cuts each |v^k| into table indices (intp arrays, with the
sign masks); they depend on the table's digit layout but not on t, so a
caller that conditions the same values at several times cuts them once.
gather_phasors then gathers one complex entry per digit and
multiplies them, so the hot loop is gathers and multiplies with no trig
call and no width limit: powers beyond int64 (K >= 2 with large values)
have their digits taken from Python ints in an object array, and
non-negative values skip the abs and sign passes.  Where a digit position
holds long runs of equal digits, as the top digits of ascending keys do,
it multiplies one entry per run instead of gathering one per element.
Callers that loop over blocks pass a KernelScratch (out=) so the blocks
reuse one set of buffers; cos Delta is Re(Q_a * P_v), and |eps|^2 follows
from it in eps_squared_batch.  Re(Q_a * P_a) rounds to 1 +- an ulp, so
callers set on-target entries to exactly 1 (phase_delta_batch gives
exactly 0 there).  The batch angle agrees with phase_delta to within
2.1e-15 rad (5,600 random comparisons, K = 1..4, signed values up to the
int64 and 128-bit limits, with 13-bit and with narrower digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# the Veltkamp split in _two_prod multiplies by 2^27 + 1, so its factors and
# their product must stay below 2^(1024 - 28)
_SPLIT_LIMIT = 2.0**996

_INT128_MAX = (1 << 127) - 1
_INT64_MAX = (1 << 63) - 1
_MAX_ORDER = 4

# phase tables index |v^k| by digits of at most 13 bits
_DIGIT_BITS = 13
# phase_tables fills its rows in windows of at most this many entries (or one
# row), so the fill's float64 temporaries stay near 1 MiB however many steps
_TABLE_WINDOW = 1 << 13
# callers hand the phasor kernel at most this many elements at a time, so its
# temporaries stay in cache; values are element-wise, so the size changes none
KERNEL_BLOCK = 1 << 16
# a digit position whose runs of equal digits average at least this many
# elements is multiplied by one table entry per run instead of gathered per
# element (see value_digits).  A run costs ~1 us of call overhead and saves
# ~1.9 ns per element over the gather, so the two break even near 540
# elements per run (2 shared vCPUs); 1,024 keeps a margin for slower calls
_RUN_MIN = 1 << 10


@dataclass(frozen=True)
class OscillatorParams:
    """Nonlinear couplings g_1..g_K, whose count is the order K of the
    coupling polynomial.

    The oscillators' own frequencies cancel in every phase difference (see
    phase_delta), so they are taken as zero and are not parameters.
    """

    couplings: tuple = (1.0,)
    order = property(lambda self: len(self.couplings))     # K, read-only

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        if not self.couplings:
            raise ValueError("at least one coupling g_1 is needed")
        if self.order > _MAX_ORDER:
            raise ValueError(f"order K capped at {_MAX_ORDER}, got {self.order}")
        if self.couplings[-1] == 0.0:
            raise ValueError("leading coupling g_K must be nonzero")
        if not all(math.isfinite(g) for g in self.couplings):
            raise ValueError("couplings must be finite")


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
    """Coherent amplitude |alpha| of a marker.  The phase of alpha cancels
    in every overlap, so alpha is taken real."""

    magnitude: float

    def __post_init__(self):
        if not math.isfinite(self.magnitude):
            raise ValueError("marker amplitude must be finite")
        if self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")


def normalize_alpha_schedule(sched) -> tuple:
    """Validated marker-amplitude schedule: |alpha| per iteration, as floats.

    A scalar means a constant schedule.  The schedule must be non-empty,
    finite, non-negative and non-decreasing; its last entry repeats once
    exhausted.
    """
    if isinstance(sched, (int, float)):
        sched = (float(sched),)
    else:
        sched = tuple(float(a) for a in sched)
    if not sched or any(a < 0 for a in sched):
        raise ValueError("alpha schedule must be non-empty and non-negative")
    if not all(math.isfinite(a) for a in sched):
        raise ValueError("alpha schedule must be finite")
    if any(b < a for a, b in zip(sched, sched[1:])):
        raise ValueError("alpha schedule must be non-decreasing")
    return sched


def alpha_at(sched: tuple, l: int) -> float:
    """|alpha| for iteration l >= 1 of a schedule from normalize_alpha_schedule."""
    return sched[min(l - 1, len(sched) - 1)]


def check_run_limits(L_max: int, stop: float, stop_name: str) -> None:
    """ValueError unless the iteration cap is >= 1 and the stop threshold,
    named stop_name in the message, lies in (0, 1]."""
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    if not 0.0 < stop <= 1.0:
        raise ValueError(f"{stop_name} must be in (0, 1]")


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


def _exact_phases(params: OscillatorParams, t: float) -> tuple:
    """(nums, turn, den): nums[k-1] / den is the exact value of the
    double-double of g_k*t and turn / den the 2*pi triple, over one
    power-of-two den.

    ValueError unless t is finite and each |g_k|, |t| and |g_k*t| is below
    2**996, where the split in _two_prod stays finite.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    parts = []
    for g in params.couplings:
        if not max(abs(g), abs(t), abs(g * t)) < _SPLIT_LIMIT:
            raise ValueError(f"g*t = {g!r} * {t!r} is beyond the exact phase reduction: "
                             f"|g|, |t| and |g*t| must stay below 2**996 (~6.7e299)")
        parts.append([x.as_integer_ratio() for x in _two_prod(g, t)])
    den = max(_TWOPI_FRACTION.denominator, *(d for pair in parts for _, d in pair))
    nums = [sum(n * (den // d) for n, d in pair) for pair in parts]
    return nums, _TWOPI_FRACTION.numerator * (den // _TWOPI_FRACTION.denominator), den


def _residue(x: int, turn: int) -> int:
    """x - q*turn with q = round(x / turn), ties to even, as round() rounds
    a Fraction: |result| <= turn / 2."""
    q, rem = divmod(2 * x + turn, 2 * turn)
    if not rem and q & 1:
        q -= 1
    return x - q * turn


def _reduce_fraction(x: Fraction) -> float:
    """Nearest-double representative of x mod 2*pi in (-pi, pi]."""
    r = float(x - round(x / _TWOPI_FRACTION) * _TWOPI_FRACTION)
    # fraction rounding can leave |r| a hair beyond float(pi); fold once
    if r > math.pi:
        r -= TWOPI_HI
    elif r < -math.pi:
        r += TWOPI_HI
    return r


def phase_delta(params: OscillatorParams, target_term: int, trial_term: int, t: float) -> PhaseDelta:
    """Delta = (Omega_target - Omega_trial) * t, reduced to (-pi, pi].

    The marker frequency cancels in the difference, so only the couplings
    enter.  Each term difference target^k - trial^k is carried as an exact
    integer (checked 128-bit), multiplied by the exact rational value of
    g_k * t, and the sum is reduced against a ~160-bit 2*pi, keeping the
    reduction error far below the 1e-9 contract even at |raw| ~ 2^60.
    """
    nums, _, den = _exact_phases(params, t)
    total = 0
    for k, num in enumerate(nums, start=1):
        total += num * (_int_pow_checked(target_term, k) - _int_pow_checked(trial_term, k))
    angle = _reduce_fraction(Fraction(total, den)) if total else 0.0
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
    """exp(-i * (r * B^j * g_k * t mod 2*pi)) for digits r < B = 2^bits[k-1].

    rows[k-1][j] is the complex128 row for order k and digit position j,
    holding every digit value a |v^k| can take with |v| up to the max_term
    the table was built for, and no more: each row is its own array of
    exactly that length.  bits[k-1] is the digit width of order k.
    Read-only once built, so forked worker processes share its pages.
    """

    rows: tuple
    bits: tuple


def phase_table(params: OscillatorParams, t: float, max_term: int) -> PhaseTable:
    """Value-phasor tables for (params, t), covering values with |v| <= max_term:
    phase_tables for the one time t.

    Raises OverflowError where phase_delta would: max_term**K past 128 bits.
    """
    return phase_tables(params, (t,), max_term)[0]


def phase_tables(params: OscillatorParams, times, max_term: int) -> list:
    """phase_table(params, t, max_term) for each t of `times`, in one pass.

    Every table has the same layout.  Each row's base angle B_k^j*g_k*t mod
    2*pi is reduced exactly in integers over _exact_phases and kept as a
    double-double; then the rows of every step are filled together, in
    windows of whole rows, each row its own array of exactly its entries.
    Raises OverflowError where phase_delta would: max_term**K past 128
    bits; ValueError where _exact_phases does.
    """
    widths, lengths = [], []
    for k in range(1, params.order + 1):
        bound = _int_pow_checked(max_term, k)           # >= |v^k|
        n_digits = max(1, -(-bound.bit_length() // _DIGIT_BITS))
        w = max(1, -(-bound.bit_length() // n_digits))
        widths.append(w)
        # digit values reachable at position j: the top row is short
        lengths.append([min((1 << w) - 1, bound >> (w * j)) + 1 for j in range(n_digits)])
    base = []       # (hi, lo) of each row's base angle, step by step
    for t in times:
        nums, turn, den = _exact_phases(params, t)
        for num, w, row_lengths in zip(nums, widths, lengths):
            for j in range(len(row_lengths)):
                phi = _residue(num << (w * j), turn)
                hi = phi / den                          # int / int rounds correctly
                a, b = hi.as_integer_ratio()
                base.append((hi, (phi * b - a * den) / (den * b)))     # phi - hi
    per_step = [n for row_lengths in lengths for n in row_lengths]
    n_steps = len(base) // len(per_step)
    rows = iter(_table_rows(base, per_step * n_steps))
    return [PhaseTable(rows=tuple(tuple(next(rows) for _ in row_lengths)
                                  for row_lengths in lengths),
                       bits=tuple(widths))
            for _ in range(n_steps)]


def _table_rows(base: list, lengths: list) -> list:
    """Row i: exp(-i * (r * phi_i mod 2*pi)) for r < lengths[i], with phi_i =
    base[i] a double-double, as its own complex128 array.

    r * phi_i is formed exactly by _two_prod and reduced by _reduce_batch;
    each window of rows is filled in one numpy pass.  The rows are allocated
    before any window's temporaries, so that freeing those leaves no holes
    between rows on the heap to keep the process's resident size up.
    """
    rows, i = [np.empty(m, dtype=np.complex128) for m in lengths], 0
    while i < len(lengths):
        j, n = i + 1, lengths[i]
        while j < len(lengths) and n + lengths[j] <= _TABLE_WINDOW:
            n += lengths[j]
            j += 1
        size = np.array(lengths[i:j])
        starts = np.cumsum(size) - size
        r = (np.arange(n) - np.repeat(starts, size)).astype(np.float64)
        phi_hi, phi_lo = (np.repeat(x, size) for x in np.array(base[i:j]).T)
        p_hi, p_lo = _two_prod(r, phi_hi)       # r * phi_hi exactly
        angle = _reduce_batch(p_hi, p_lo + r * phi_lo)
        z = np.empty(n, dtype=np.complex128)
        np.cos(angle, out=z.real)
        np.sin(angle, out=z.imag)
        np.subtract(0.0, z.imag, out=z.imag)    # r = 0 gives exactly (1, +0)
        for a, row in zip(starts.tolist(), rows[i:j]):
            np.copyto(row, z[a : a + len(row)])
        i = j
    return rows


def target_phasors(params: OscillatorParams, t: float, targets) -> np.ndarray:
    """Q_a = exp(i * (sum_k g_k t a^k mod 2*pi)) per integer target a, complex128.

    Each phase is reduced exactly, to the correctly rounded residue mod 2*pi
    that phase_delta(params, a, 0, t) reduces to, in integer arithmetic over
    _exact_phases.  Raises OverflowError where phase_delta would: a**K past
    128 bits; ValueError where _exact_phases does.
    """
    nums, turn, den = _exact_phases(params, t)
    shape = np.shape(targets)
    xs = np.ravel(targets).tolist()
    _int_pow_checked(max(map(abs, xs), default=0), params.order)

    def angle(x: int) -> float:
        y = 0
        for num in reversed(nums):      # Horner: sum_k g_k t x^k, scaled by den
            y = (y + num) * x
        return _residue(y, turn) / den

    r = np.array([angle(x) for x in xs], dtype=np.float64)
    q = np.empty(len(r), dtype=np.complex128)
    np.cos(r, out=q.real)
    np.sin(r, out=q.imag)
    return q.reshape(shape)


class KernelScratch:
    """Work buffers for value_digits, gather_phasors and eps_squared_batch.

    A loop over blocks passes one scratch as out= to each call, so the
    blocks reuse the same buffers instead of allocating their temporaries
    afresh.  Buffers are made on first use, one per name and dtype, as large
    as that call needs, and made again only when a later call needs more
    (so a scratch for small states stays small); results returned from a
    call are views into them, valid until the next call with the same
    scratch.
    """

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        key = (name, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or len(buf) < n:
            buf = self._bufs[key] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)


def _int_array(terms) -> np.ndarray:
    arr = np.asarray(terms)
    return arr if arr.dtype.kind in "iu" else arr.astype(np.int64)


def _digit(mag, shift: int, mask, out):
    """The digit of |v^k| at bit `shift` into the intp array `out`, masked
    unless it is the top digit."""
    if mag.dtype == object:
        d = mag >> shift
        np.copyto(out, d if mask is None else d & mask, casting="unsafe")
    elif mask is None:
        np.right_shift(mag, shift, out=out)
    else:
        np.bitwise_and(np.right_shift(mag, shift, out=out) if shift else mag, mask, out=out)
    return out


def _check_covered(table: PhaseTable, k: int, bits: int, top: int) -> int:
    """The number of bits-wide digits of top = max |v^k|; IndexError unless
    the table's order-k rows are that wide and hold every such digit."""
    rows, n_digits = table.rows[k - 1], -(-top.bit_length() // bits)
    if (table.bits[k - 1] != bits or n_digits > len(rows)
            or top >> (bits * (n_digits - 1)) >= len(rows[n_digits - 1])):
        raise IndexError(f"|v^{k}| = {top} is beyond the phase table")
    return n_digits


@dataclass(frozen=True)
class DigitRuns:
    """One digit position of an array of values, as runs of equal digits:
    in flat order, elements bounds[i] to bounds[i + 1] - 1 have digit
    digits[i]."""

    bounds: list
    digits: list


@dataclass(frozen=True)
class ValueDigits:
    """The table indices of an array of values, from value_digits.

    orders holds, per order k whose powers are not all zero, (k, bits, top,
    digits, negative): the digit width, the largest |v^k|, per digit
    position of |v^k| (least significant first) an intp array or its
    DigitRuns, and the mask of v^k < 0, or None when no power is negative.
    """

    shape: tuple
    orders: tuple


def _runs(d: np.ndarray, ws: KernelScratch):
    """The digits d of one position as DigitRuns if their runs of equal
    digits average at least _RUN_MIN elements, each run longer than one;
    else d itself.

    A run of one would be multiplied by a one-element call, which numpy
    computes in scalar code; on CPUs with fused multiply-add its vector
    loops round a complex product differently, so that run would not get
    the bits a gather over the whole array gives.
    """
    flat = d.reshape(-1)
    n = len(flat)
    if n < _RUN_MIN:
        return d
    change = np.not_equal(flat[1:], flat[:-1], out=ws.get("change", (n - 1,), bool))
    if n < _RUN_MIN * (1 + np.count_nonzero(change)):
        return d
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), n]
    if any(b - a == 1 for a, b in zip(bounds, bounds[1:])):
        return d
    return DigitRuns(bounds, flat[bounds[:-1]].tolist())


def value_digits(table: PhaseTable, values, span=None, out=None) -> ValueDigits:
    """The digits of |v^k| per order k and digit position, as intp arrays,
    with the sign masks, for the phase table's layout.

    They depend on the table only through its digit widths and row lengths
    (the order K and the max_term it was built for), not on t, so a caller
    that conditions the same values at several times cuts them once and
    calls gather_phasors per time.  Powers beyond int64 (K >= 2 with large
    values) have their digits taken from Python ints in an object array.
    `span` is (min, max) of the values when the caller knows it (ascending
    keys give it in O(1)); non-negative values skip the abs and sign passes.
    A digit position whose runs of equal digits are long (ascending keys
    give long runs in their top digits) is kept as its runs (_runs), so
    gather_phasors multiplies one table entry per run there.  The arrays
    are views into `out` (a KernelScratch) when given.  A value beyond the
    range the table was built for raises IndexError.
    """
    vals = _int_array(values)
    shape = vals.shape
    if not vals.size:
        return ValueDigits(shape, ())
    ws = KernelScratch() if out is None else out
    lo, hi = (int(vals.min()), int(vals.max())) if span is None else span
    big, order = max(-lo, hi), len(table.bits)
    if _int_pow_checked(big, order) > _INT64_MAX:
        vals = vals.astype(object)
    orders, power = [], vals
    for k in range(1, order + 1):
        if k > 1:
            power = (power * vals if vals.dtype == object else
                     np.multiply(power, vals, out=ws.get("pow", shape, np.int64),
                                 dtype=np.int64))
        top, w = big**k, table.bits[k - 1]
        if not top:         # every v^k is zero: a factor of 1
            continue
        n_digits = _check_covered(table, k, w, top)
        signed = lo < 0 and k % 2 == 1
        if not signed:
            mag = power
        elif power.dtype == object:
            mag = np.abs(power)
        else:
            mag = np.abs(power, out=ws.get("mag", shape, np.int64), dtype=np.int64)
        digits = tuple(_runs(_digit(mag, w * j, (1 << w) - 1 if j < n_digits - 1 else None,
                                    ws.get(f"digit{k}.{j}", shape, np.intp)), ws)
                       for j in range(n_digits))
        negative = np.less(power, 0, out=ws.get(f"negative{k}", shape, bool)) if signed else None
        orders.append((k, w, top, digits, negative))
    return ValueDigits(shape, tuple(orders))


def gather_phasors(table: PhaseTable, digits: ValueDigits, out=None) -> np.ndarray:
    """P_v = exp(-i * sum_k g_k t v^k) per value, complex128, from the
    values' digits (value_digits) and a phase table of the same layout.

    One table entry is gathered per digit of |v^k| and the entries are
    multiplied in digit order; a negative v^k conjugates its order's factor.
    A position held as DigitRuns takes one entry per run instead, and
    multiplies (or, as the first position, fills) the run's slice by it in
    one call; each element gets the same product, bit for bit, as from the
    gather.  Each element's arithmetic is independent of the others, so a
    value comes out bit-identical in any call of two or more elements that
    contains it, given tables of the same digit widths (numpy computes a
    one-element call in scalar code, see _runs).  The result is a view into
    `out` (a KernelScratch) when given.  A table whose layout does not hold
    the digits raises IndexError.
    """
    ws = KernelScratch() if out is None else out
    shape = digits.shape
    P = ws.get("P", shape, np.complex128)
    first = True
    for k, w, top, idx, negative in digits.orders:
        _check_covered(table, k, w, top)
        rows = table.rows[k - 1]
        # the first order gathers straight into the result
        f = P if first else ws.get("f", shape, np.complex128)
        for j, (row, d) in enumerate(zip(rows, idx)):   # range checked above
            if isinstance(d, DigitRuns):
                flat = f.reshape(-1)
                for a, b, r in zip(d.bounds, d.bounds[1:], d.digits):
                    seg = flat[a:b]
                    if j:
                        np.multiply(seg, row[r], out=seg)
                    else:
                        seg.fill(row[r])
            elif j:
                f *= row.take(d, out=ws.get("g", shape, np.complex128), mode="wrap")
            else:
                row.take(d, out=f, mode="wrap")
        if negative is not None:
            np.negative(f.imag, out=f.imag, where=negative)
        if not first:
            P *= f
        first = False
    if first:
        P.fill(1.0)
    return P


def phase_delta_batch(params: OscillatorParams, target_term: int, trial_terms,
                      t: float) -> np.ndarray:
    """Vectorized phase_delta: the angle of Q_target * P_trial, in [-pi, pi],
    and exactly 0 on trials equal to the target."""
    trials = _int_array(trial_terms)
    bound = max(abs(int(trials.min())), abs(int(trials.max()))) if trials.size else 0
    table = phase_table(params, t, bound)
    z = gather_phasors(table, value_digits(table, trials))
    angle = np.angle(z * target_phasors(params, t, [target_term])[0])
    angle[trials == target_term] = 0.0
    return angle


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
    """|eps|^2 = exp(-2 |a|^2 (1 - cos Delta)), elementwise from cos Delta.

    A product of unit phasors can round cos a hair above 1; the result is
    clamped to 1 there, which is exp(0).
    """
    a2 = alpha_mag * alpha_mag
    w = np.subtract(cos, 1.0, out=out)
    w *= 2.0 * a2
    np.exp(w, out=w)
    if w.size and w.max() > 1.0:
        np.minimum(w, 1.0, out=w)
    return w
