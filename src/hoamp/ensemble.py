"""State store for the register oscillators.

A TrialEnsemble holds the register as bins: the trial tuples that share one
conditioning argument, which is the product n*m for factoring, the parity of
h(n) for search and the vector of constraint values f_k(x) for the solver.
Per bin it keeps that argument (the key), the number of tuples and their total
probability mass.  Every conditioning multiplier depends on a tuple only
through its key, and every tuple starts with the same mass, so the tuples of
a bin share its mass equally forever: one mass per distinct argument is the
whole state.  Keys ascend (rows in lexicographic order for several markers),
which fixes summation and sampling order across platforms.

Which tuples a bin holds is the business of the state's member enumerator,
one per application:

* members(keys, i): the tuples of bin i, ascending, as a (count, arity) array,
  which sampling and the solution lists use;
* bin_of(keys, member): the bin holding one tuple, or None if none does,
  which fidelity uses (factoring only).

Factoring's is Rectangle below; its bins are built by a segmented sieve over
the product range, one 4 MiB window at a time, straight into the key and
count arrays.

Masses suffice because every reported quantity (Pr(E), C, fidelity against
the target members, solution mass, samples) depends only on |eps|^2: target
and accepted tuples are multiplied by exactly eps = 1 and start real and
equal, so their amplitudes never pick up a relative phase.
tests/test_fockoracle.py checks this against dense complex amplitudes, per
member tuple.

Conditioning multiplies each bin's mass by its multiplier, reports the
surviving mass, and renormalizes, in one loop (_condition) for every caller.
Factoring takes |eps|^2 from the value-phasor kernel in dynamics: per step,
one phase table and the target's phasor Q (one exactly reduced scalar), both
made before the chunks are dispatched and shared read-only by the workers.
Per block of bins a worker gathers each key's phasor P_v, forms
cos Delta = Re(Q * P_v) and |eps|^2, sets the bin on target to exactly 1,
scales the masses and sums them while the block is still in cache, with one
set of kernel buffers per worker reused by every block it runs.
Renormalizing runs on the same chunks.  The block sums are combined with
math.fsum in index order, so results are bit-identical no matter how many
worker threads run the chunks (pool size capped by HOAMP_THREADS).
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    KERNEL_BLOCK,
    KernelScratch,
    MarkerAmplitude,
    OscillatorParams,
    eps_squared_batch,
    phase_table,
    target_phasors,
    value_phasors,
)
from .errors import ConditionedMassVanished, DomainTooLarge, EmptyRange, NoFactorInRange
from .rng import SplitMix64

_CHUNK = 1 << 20
_VANISH = 1e-300
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
    keys: np.ndarray       # conditioning argument per bin, ascending; (bins, B) for B markers
    counts: np.ndarray     # tuples per bin
    mass: np.ndarray       # total probability mass per bin
    domain: object         # member enumerator: members(keys, i) [, bin_of(keys, member)]

    # benchmarks/tracing.py reads these; ROADMAP item 1 deletes this block
    layout = property(lambda self: "binned")
    tuples = property(lambda self: None)
    weights = property(lambda self: None)

    @classmethod
    def uniform(cls, keys: np.ndarray, counts: np.ndarray, domain) -> "TrialEnsemble":
        """Mass 1/n on each of the n tuples: counts/n per bin."""
        mass = counts.astype(np.float64)
        mass *= 1.0 / int(counts.sum(dtype=np.int64))
        return cls(keys=keys, counts=counts, mass=mass, domain=domain)

    @property
    def n_entries(self) -> int:
        return int(self.counts.sum(dtype=np.int64))

    def members(self, i: int) -> np.ndarray:
        """The tuples of bin i, ascending, one per row."""
        return self.domain.members(self.keys, i)

    def total_mass(self) -> float:
        m = self.mass
        parts = _run_chunks(len(m), lambda ci, a, b: float(np.sum(m[a:b])))
        return math.fsum(parts)

    def copy(self) -> "TrialEnsemble":
        # keys and counts are never written after construction: shared
        return TrialEnsemble(keys=self.keys, counts=self.counts, mass=self.mass.copy(),
                             domain=self.domain)


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
class Rectangle:
    """Members of a factoring state: the trial pairs (n, m) of the rectangle,
    binned by their product."""

    n_lo: int
    n_hi: int
    m_lo: int
    m_hi: int

    def members(self, keys: np.ndarray, i: int) -> np.ndarray:
        """Pairs with n*m = keys[i], ascending n.

        n >= ceil(v/m_hi) and n <= floor(v/m_lo) keep m = v/n in [m_lo, m_hi].
        """
        v = int(keys[i])
        lo, hi = max(self.n_lo, -(-v // self.m_hi)), min(self.n_hi, v // self.m_lo)
        pairs = [(n, v // n) for n in range(lo, hi + 1) if v % n == 0]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    def bin_of(self, keys: np.ndarray, member):
        if len(member) != 2:
            return None
        n, m = (int(x) for x in member)
        if not (self.n_lo <= n <= self.n_hi and self.m_lo <= m <= self.m_hi):
            return None
        # every pair's product is a key; a Python-int needle would cast the
        # whole key array
        return int(np.searchsorted(keys, keys.dtype.type(n * m)))


def init_uniform_factoring(N: int) -> TrialEnsemble:
    """Uniform mass 1/n_pairs over all trial pairs for factoring N, in product bins."""
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(N)
    if n_hi < n_lo or m_hi < m_lo:
        raise EmptyRange(
            f"trial ranges for N={N} are empty: n in [{n_lo},{n_hi}], m in [{m_lo},{m_hi}]"
        )
    n_pairs = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if n_pairs > _MAX_BINS:     # a rectangle has no more product bins than pairs
        raise DomainTooLarge(f"N={N} has {n_pairs} trial pairs; product bins for more "
                             f"than {_MAX_BINS} would not fit")
    keys, counts = _product_bins(n_lo, n_hi, m_lo, m_hi)
    return TrialEnsemble.uniform(keys, counts, Rectangle(n_lo, n_hi, m_lo, m_hi))


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
    """The conditioning loop: scale each bin's mass, renormalize, report Pr.

    block_multipliers(lo, hi, scratch) gives the real multipliers of bins
    [lo, hi), called per KERNEL_BLOCK inside each chunk so kernel temporaries
    stay in cache; scratch is a KernelScratch for one block, made once per
    worker and reused by every block it runs.  Each block is summed right
    after it is scaled, while it is still in cache, and the block sums are
    combined with math.fsum in index order.
    """
    post = state if in_place else state.copy()
    arr = post.mass
    spare = queue.SimpleQueue()     # scratches not in use by a running chunk

    def job(ci, a, b):
        try:
            scratch = spare.get_nowait()
        except queue.Empty:
            scratch = KernelScratch(min(KERNEL_BLOCK, len(arr)))
        sums = []
        for lo in range(a, b, KERNEL_BLOCK):
            seg = arr[lo : min(lo + KERNEL_BLOCK, b)]
            seg *= block_multipliers(lo, lo + len(seg), scratch)
            sums.append(float(np.sum(seg)))    # while the block is in cache
        spare.put(scratch)
        return sums

    def rescale(ci, a, b):
        seg = arr[a:b]
        seg /= c

    c = math.fsum(s for sums in _run_chunks(len(arr), job) for s in sums)
    if c < _VANISH:
        raise ConditionedMassVanished(f"surviving mass {c:.3e}")
    _run_chunks(len(arr), rescale)
    pr = min(c, 1.0) if c <= 1.0 + 1e-9 else c  # guard rounding overshoot only
    return MeasurementOutcome(probability=pr, post_state=post, normalization=prev_norm * pr)


def apply_entry_multipliers(state: TrialEnsemble, multipliers, prev_norm: float = 1.0,
                            in_place: bool = False) -> MeasurementOutcome:
    """Multiply each bin's mass by its real multiplier, renormalize, report Pr.

    `multipliers` holds one factor per bin (|eps|^2 or a product of them).  Search and the solver condition through here, and factoring
    through the same loop, so identical inputs give bit-identical outcomes
    across modules.
    """
    return _condition(state, lambda lo, hi, _: multipliers[lo:hi], prev_norm, in_place)


def conditional_update(state: TrialEnsemble, params: OscillatorParams,
                       alpha: MarkerAmplitude, target_term: int, t: float,
                       prev_norm: float = 1.0, in_place: bool = False) -> MeasurementOutcome:
    """One conditional measurement against the target product term.

    Every bin's mass is multiplied by |eps|^2 for the phase difference
    between its product term and the target, the surviving mass Pr(E) is
    recorded, and the state is renormalized.
    """
    amag = alpha.magnitude
    keys = state.keys
    # keys ascend, so the end bins bound every |key| and give each block's span
    table = phase_table(params, t, max(abs(int(keys[0])), abs(int(keys[-1]))))
    q = target_phasors(params, t, [target_term])[0]
    hit = -1        # the bin on target, whose multiplier is exactly 1
    if keys[0] <= target_term <= keys[-1]:
        i = int(np.searchsorted(keys, keys.dtype.type(target_term)))
        hit = i if keys[i] == target_term else -1

    def block(a, b, scratch):
        z = value_phasors(table, keys[a:b], out=scratch, span=(int(keys[a]), int(keys[b - 1])))
        z *= q
        w = eps_squared_batch(amag, z.real, out=scratch.get("w", (b - a,)))
        if a <= hit < b:
            w[hit - a] = 1.0
        return w

    return _condition(state, block, prev_norm, in_place)


def fidelity(state: TrialEnsemble, target: TargetState) -> float:
    """Uhlmann fidelity (sum_f sqrt(w_f p_f))^2 against the target members,
    with p_f the state's mass on member f, an equal share of its bin's mass
    (members the state does not hold add 0)."""
    acc = 0.0
    for member, w in zip(target.members, target.weights):
        i = state.domain.bin_of(state.keys, member)
        if i is not None:
            acc += math.sqrt(w * (float(state.mass[i]) / float(state.counts[i])))
    return min(acc * acc, 1.0)


def member_masses(state: TrialEnsemble, bins=None) -> list:
    """(tuple, mass) for every member of the given bins (default: all),
    ascending by tuple, each member holding an equal share of its bin's mass."""
    out = []
    for i in range(len(state.counts)) if bins is None else bins:
        if state.counts[i]:
            share = float(state.mass[i]) / float(state.counts[i])
            out.extend((tuple(m), share) for m in state.members(i).tolist())
    out.sort()
    return out


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

    Deterministic given the seed: cumulative-sum inversion over the bins in
    ascending key order, then one member of the drawn bin, uniformly.
    """
    rng = rng_seed if isinstance(rng_seed, SplitMix64) else SplitMix64(int(rng_seed))
    x = rng.uniform() * state.total_mass()
    members = state.members(_locate_quantile(state.mass, x))
    j = min(int(rng.uniform() * len(members)), len(members) - 1)
    return tuple(int(v) for v in members[j])
