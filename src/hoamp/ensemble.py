"""State store for the register oscillators.

A TrialEnsemble holds a real probability mass per row, in one of two layouts:

* explicit: every tuple stored with its own mass.  Tuples are kept in
  ascending lexicographic order, which fixes summation and sampling order
  across platforms.
* binned: for the big two-factor rectangles (hundreds of millions of pairs)
  only the distinct products v = n*m are stored, with the pair count and the
  total mass per bin.  Every conditioning multiplier depends on the pair only
  through v, and all tuples of a bin start with equal mass, so the mass stays
  shared equally within each bin forever.  The bins are built by a segmented
  sieve over the product range, one 4 MiB window at a time, straight into
  the key and count arrays: no dense scratch over all products.

Masses suffice because every reported quantity (Pr(E), C, fidelity against
the target members, solution mass, samples) depends only on |eps|^2: target
and accepted rows are multiplied by exactly eps = 1 and start real and equal,
so their amplitudes never pick up a relative phase.  tests/test_fockoracle.py
checks this against dense complex amplitudes.

Conditioning multiplies each row's mass by its multiplier, reports the
surviving mass, and renormalizes, in one loop (_condition) for every caller.
Factoring takes |eps|^2 from the phasor kernel in dynamics: one phase table
per step, built before the chunks are dispatched and shared read-only by the
workers, and one set of kernel buffers per worker, reused by every block it
runs.  Renormalizing runs on the same chunks.  Sums are accumulated per
fixed-size chunk and the chunk partials combined with math.fsum in index
order, so results are bit-identical no matter how many worker threads run
the chunks (pool size capped by HOAMP_THREADS).
"""

from __future__ import annotations

import math
import os
import queue
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    KERNEL_BLOCK,
    KernelScratch,
    MarkerAmplitude,
    OscillatorParams,
    eps_squared_batch,
    phase_table,
    phasors,
    term_differences,
)
from .errors import ConditionedMassVanished, DomainTooLarge, EmptyRange, NoFactorInRange
from .rng import SplitMix64

_CHUNK = 1 << 20
_VANISH = 1e-300
# explicit pair tables get unwieldy beyond this; switch to product bins
_BINNED_THRESHOLD = 1 << 22
# product slots the bin sieve counts at a time (a 4 MiB int32 window)
_SIEVE_WINDOW = 1 << 20
# keys, counts and mass for more bins than this take over 16 GiB
_MAX_BINS = 1 << 30


def _worker_count() -> int:
    raw = os.environ.get("HOAMP_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, cap)


def _run_chunks(n_items, fn):
    """Run fn(chunk_index, start, stop) over fixed chunks; deterministic order
    of the returned list regardless of pool size."""
    n_chunks = max(1, -(-n_items // _CHUNK))
    results = [None] * n_chunks
    workers = min(_worker_count(), n_chunks)

    def job(ci):
        start = ci * _CHUNK
        results[ci] = fn(ci, start, min(start + _CHUNK, n_items))

    if workers == 1:
        for ci in range(n_chunks):
            job(ci)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(job, range(n_chunks)))
    return results


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def factoring_ranges(N: int):
    """Trial ranges: n in [3, ceil(sqrt(N))], m in [ceil(sqrt(N+1)), ceil(N/3)]."""
    n_lo, n_hi = 3, ceil_sqrt(N)
    m_lo, m_hi = ceil_sqrt(N + 1), -(-N // 3)
    return n_lo, n_hi, m_lo, m_hi


@dataclass
class TrialEnsemble:
    arity: int
    # explicit layout
    tuples: np.ndarray = None      # (n_entries, arity) int64, lexicographic
    weights: np.ndarray = None     # float64 probability mass per tuple
    # binned layout (two-factor rectangle states)
    keys: np.ndarray = None        # distinct products, ascending
    counts: np.ndarray = None      # pairs per bin
    mass: np.ndarray = None        # total probability mass per bin
    domain: tuple = None           # (n_lo, n_hi, m_lo, m_hi)

    @property
    def layout(self) -> str:
        return "binned" if self.keys is not None else "explicit"

    @property
    def n_entries(self) -> int:
        if self.layout == "binned":
            return int(self.counts.sum(dtype=np.int64))
        return len(self.tuples)

    def entry_masses(self) -> np.ndarray:
        """Probability mass per stored row (per tuple, or per bin total)."""
        return self.mass if self.keys is not None else self.weights

    def total_mass(self) -> float:
        m = self.entry_masses()
        parts = _run_chunks(len(m), lambda ci, a, b: float(np.sum(m[a:b])))
        return math.fsum(parts)

    def copy(self) -> "TrialEnsemble":
        return TrialEnsemble(
            arity=self.arity,
            tuples=None if self.tuples is None else self.tuples.copy(),
            weights=None if self.weights is None else self.weights.copy(),
            keys=None if self.keys is None else self.keys.copy(),
            counts=None if self.counts is None else self.counts.copy(),
            mass=None if self.mass is None else self.mass.copy(),
            domain=self.domain,
        )

    def product_keys(self) -> np.ndarray:
        """Product of the tuple components per entry (the coupling argument)."""
        if self.layout == "binned":
            return self.keys
        keys = self.tuples[:, 0].astype(np.int64)
        for j in range(1, self.arity):
            keys = keys * self.tuples[:, j]
        return keys


@dataclass(frozen=True)
class TargetState:
    """The factor/solution states rho_f: members with normalized weights."""

    members: tuple                 # tuple of occupation tuples
    weights: tuple                 # same length, sums to 1

    def __post_init__(self):
        if not self.members:
            raise ValueError("target must have at least one member")
        s = math.fsum(self.weights)
        if abs(s - 1.0) > 1e-12:
            raise ValueError("target weights must sum to 1")

    @classmethod
    def factor_target(cls, N: int) -> "TargetState":
        n_lo, n_hi, m_lo, m_hi = factoring_ranges(N)
        members = [
            (r, N // r)
            for r in range(n_lo, n_hi + 1)
            if N % r == 0 and m_lo <= N // r <= m_hi
        ]
        if not members:
            raise NoFactorInRange(f"no factor pair of {N} inside the trial ranges")
        w = 1.0 / len(members)
        return cls(members=tuple(members), weights=tuple([w] * len(members)))


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float             # Pr(E_l) = C_l / C_{l-1}
    post_state: TrialEnsemble
    normalization: float           # cumulative C_l (prev_norm * probability)


@dataclass(frozen=True)
class ProductBinTable:
    keys: np.ndarray
    counts: np.ndarray
    mass: np.ndarray
    target_term: int = None
    target_members: tuple = ()

    @property
    def n_bins(self) -> int:
        return len(self.keys)


def init_uniform_factoring(N: int, layout: str = "auto") -> TrialEnsemble:
    """Uniform mass 1/n_pairs over all trial pairs for factoring N.

    layout 'auto' stores pairs explicitly up to ~4e6 of them and switches to
    product bins beyond that; 'explicit'/'binned' force one representation.
    """
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(N)
    if n_hi < n_lo or m_hi < m_lo:
        raise EmptyRange(
            f"trial ranges for N={N} are empty: n in [{n_lo},{n_hi}], m in [{m_lo},{m_hi}]"
        )
    n_pairs = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if layout == "auto":
        layout = "explicit" if n_pairs <= _BINNED_THRESHOLD else "binned"

    if layout == "explicit":
        n_vals = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        m_vals = np.arange(m_lo, m_hi + 1, dtype=np.int64)
        tuples = np.empty((n_pairs, 2), dtype=np.int64)
        tuples[:, 0] = np.repeat(n_vals, len(m_vals))
        tuples[:, 1] = np.tile(m_vals, len(n_vals))
        weights = np.full(n_pairs, 1.0 / n_pairs)
        return TrialEnsemble(arity=2, tuples=tuples, weights=weights)

    if layout != "binned":
        raise ValueError(f"unknown layout {layout!r}")
    if n_pairs > _MAX_BINS:     # a rectangle has no more product bins than pairs
        raise DomainTooLarge(f"N={N} has {n_pairs} trial pairs; product bins for more "
                             f"than {_MAX_BINS} would not fit")
    keys, counts = _product_bins(n_lo, n_hi, m_lo, m_hi)
    mass = counts.astype(np.float64)
    mass *= 1.0 / n_pairs
    return TrialEnsemble(
        arity=2, keys=keys, counts=counts, mass=mass,
        domain=(n_lo, n_hi, m_lo, m_hi),
    )


def _product_bins(n_lo: int, n_hi: int, m_lo: int, m_hi: int):
    """Distinct products n*m over the rectangle, ascending, with pair counts.

    A segmented sieve: one window of _SIEVE_WINDOW product slots at a time,
    each n adding 1 at its multiples n*m that fall in the window, and the
    nonzero slots appended to keys/counts.  Those are allocated for one bin
    per pair, the most there can be, and shrunk to fit at the end; pages
    never written cost no memory.
    """
    n_pairs = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    vmin, vmax = n_lo * m_lo, n_hi * m_hi
    keys = np.empty(n_pairs, dtype=np.int32 if vmax < 2**31 else np.int64)
    counts = np.empty(n_pairs, dtype=np.int32)
    width = min(_SIEVE_WINDOW, vmax - vmin + 1)
    window = np.empty(width, dtype=np.int32)
    offsets = np.arange(width, dtype=keys.dtype)
    out = 0
    for w0 in range(vmin, vmax + 1, width):
        w1 = min(w0 + width, vmax + 1)
        win = window[: w1 - w0]
        win.fill(0)
        # n with a multiple n*m, m_lo <= m <= m_hi, inside [w0, w1)
        for n in range(max(n_lo, -(-w0 // m_hi)), min(n_hi, (w1 - 1) // m_lo) + 1):
            first = max(n * m_lo, -(-w0 // n) * n)
            win[first - w0 : min(n * m_hi, w1 - 1) - w0 + 1 : n] += 1
        nz = win != 0
        found = np.compress(nz, offsets[: w1 - w0])
        stop = out + len(found)
        np.add(found, w0, out=keys[out:stop])
        counts[out:stop] = np.compress(nz, win)
        out = stop
    # no view of either array is alive, so both shrink in place
    keys.resize(out, refcheck=False)
    counts.resize(out, refcheck=False)
    return keys, counts


def _condition(state: TrialEnsemble, block_multipliers, prev_norm: float,
               in_place: bool) -> MeasurementOutcome:
    """The conditioning loop: scale each row's mass, renormalize, report Pr.

    block_multipliers(lo, hi, scratch) gives the real multipliers of rows
    [lo, hi), called per KERNEL_BLOCK inside each chunk so kernel temporaries
    stay in cache; scratch is a KernelScratch for one block, made once per
    worker and reused by every block it runs.  Each chunk is summed after its
    blocks are scaled, and the chunk sums combined with math.fsum in index
    order.
    """
    post = state if in_place else state.copy()
    arr = post.entry_masses()
    spare = queue.SimpleQueue()     # scratches not in use by a running chunk

    def job(ci, a, b):
        try:
            scratch = spare.get_nowait()
        except queue.Empty:
            scratch = KernelScratch(min(KERNEL_BLOCK, len(arr)))
        for lo in range(a, b, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, b)
            arr[lo:hi] *= block_multipliers(lo, hi, scratch)
        spare.put(scratch)
        return float(np.sum(arr[a:b]))

    def rescale(ci, a, b):
        seg = arr[a:b]
        seg /= c

    c = math.fsum(_run_chunks(len(arr), job))
    if c < _VANISH:
        raise ConditionedMassVanished(f"surviving mass {c:.3e}")
    _run_chunks(len(arr), rescale)
    pr = min(c, 1.0) if c <= 1.0 + 1e-9 else c  # guard rounding overshoot only
    return MeasurementOutcome(probability=pr, post_state=post, normalization=prev_norm * pr)


def apply_entry_multipliers(state: TrialEnsemble, multipliers, prev_norm: float = 1.0,
                            in_place: bool = False) -> MeasurementOutcome:
    """Multiply each row's mass by its real multiplier, renormalize, report Pr.

    `multipliers` holds one factor per stored row (|eps|^2 or a product of
    them).  Search and the solver condition through here, and factoring
    through the same loop, so identical inputs give bit-identical outcomes
    across modules.
    """
    return _condition(state, lambda lo, hi, _: multipliers[lo:hi], prev_norm, in_place)


def conditional_update(state: TrialEnsemble, params: OscillatorParams,
                       alpha: MarkerAmplitude, target_term: int, t: float,
                       prev_norm: float = 1.0, in_place: bool = False) -> MeasurementOutcome:
    """One conditional measurement against the target product term.

    Every row's mass is multiplied by |eps|^2 for the phase difference
    between its product term and the target, the surviving mass Pr(E) is
    recorded, and the state is renormalized.
    """
    amag = alpha.magnitude
    keys = state.product_keys()
    # binned keys ascend, so the end bins bound every |key|; explicit
    # products are not sorted
    lo, hi = (keys[0], keys[-1]) if state.layout == "binned" else (keys.min(), keys.max())
    table = phase_table(params, t, max(abs(target_term), abs(int(lo)), abs(int(hi))))

    def block(a, b, scratch):
        diffs = term_differences(params.order, target_term, keys[a:b], out=scratch)
        cos, _ = phasors(table, diffs, out=scratch)
        return eps_squared_batch(amag, cos, out=cos)

    return _condition(state, block, prev_norm, in_place)


def _bin_members(v: int, domain) -> list:
    """Pairs (n, m) in the rectangle with n*m = v, ascending n."""
    n_lo, n_hi, m_lo, m_hi = domain
    out = []
    for n in range(max(n_lo, -(-v // m_hi)), min(n_hi, v // m_lo) + 1):
        if v % n == 0:
            m = v // n
            if m_lo <= m <= m_hi:
                out.append((n, m))
    return out


def _row_index(tuples: np.ndarray, member) -> int:
    """Row of `member` in lexicographically sorted tuples, or None: one
    binary search per component, O(arity * log rows)."""
    if len(member) != tuples.shape[1]:
        return None
    lo, hi = 0, len(tuples)
    for j, x in enumerate(member):
        col = tuples[:, j]
        lo, hi = bisect_left(col, x, lo, hi), bisect_right(col, x, lo, hi)
    return lo if lo < hi else None


def _member_mass(state: TrialEnsemble, member):
    """Mass of one occupation tuple, or None if the state does not hold it.

    Binned: the bin's mass shared equally among its pairs, the bin found by
    binary search in ascending key order.  Explicit: the row's mass, found by
    binary search in lexicographic order.
    """
    if state.layout == "explicit":
        i = _row_index(state.tuples, member)
        return None if i is None else float(state.weights[i])
    n_lo, n_hi, m_lo, m_hi = state.domain
    n, m = (int(x) for x in member)
    if not (n_lo <= n <= n_hi and m_lo <= m <= m_hi):
        return None
    # a Python-int needle would cast the whole key array
    i = int(np.searchsorted(state.keys, state.keys.dtype.type(n * m)))
    if i >= len(state.keys) or int(state.keys[i]) != n * m:
        return None
    return float(state.mass[i]) / float(state.counts[i])


def fidelity(state: TrialEnsemble, target: TargetState) -> float:
    """Uhlmann fidelity (sum_f sqrt(w_f p_f))^2 against the target members,
    with p_f the state's mass on member f (members it does not hold add 0)."""
    acc = 0.0
    for member, w in zip(target.members, target.weights):
        p = _member_mass(state, member)
        if p is not None:
            acc += math.sqrt(w * p)
    return min(acc * acc, 1.0)


def bin_by_product(state: TrialEnsemble, target_term: int = None) -> ProductBinTable:
    """Group entries by their product value (conditioning multipliers are
    constant on each bin)."""
    if state.layout == "binned":
        members = tuple(_bin_members(target_term, state.domain)) if target_term else ()
        return ProductBinTable(keys=state.keys, counts=state.counts, mass=state.mass,
                               target_term=target_term, target_members=members)
    prods = state.product_keys()
    keys, inverse, counts = np.unique(prods, return_inverse=True, return_counts=True)
    mass = np.bincount(inverse, weights=state.entry_masses(), minlength=len(keys))
    members = ()
    if target_term is not None:
        sel = prods == target_term
        members = tuple(tuple(int(x) for x in row) for row in state.tuples[sel])
    return ProductBinTable(keys=keys, counts=counts.astype(np.int64), mass=mass,
                           target_term=target_term, target_members=members)


def _locate_quantile(mass: np.ndarray, x: float) -> int:
    """Index i with cumsum(mass)[i-1] <= x < cumsum(mass)[i], chunk-scanned."""
    acc = 0.0
    for start in range(0, len(mass), _CHUNK):
        seg = mass[start : start + _CHUNK]
        s = float(np.sum(seg))
        if acc + s > x:
            cum = np.cumsum(seg) + acc
            return start + int(np.searchsorted(cum, x, side="right"))
        acc += s
    return len(mass) - 1


def sample(state: TrialEnsemble, rng_seed) -> tuple:
    """Draw one occupation tuple from the state's probability distribution.

    Deterministic given the seed: cumulative-sum inversion over entries in
    ascending lexicographic order (explicit) or ascending product key with
    ascending first component inside the bin (binned).
    """
    rng = rng_seed if isinstance(rng_seed, SplitMix64) else SplitMix64(int(rng_seed))
    masses = state.entry_masses()
    total = state.total_mass()
    x = rng.uniform() * total
    i = _locate_quantile(masses, x)
    if state.layout == "binned":
        members = _bin_members(int(state.keys[i]), state.domain)
        j = min(int(rng.uniform() * len(members)), len(members) - 1)
        return members[j]
    return tuple(int(v) for v in state.tuples[i])
