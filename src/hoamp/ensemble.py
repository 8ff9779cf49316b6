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
one per application: members(keys, i) gives the tuples of bin i, ascending,
as a (count, arity) array, which sampling and the solution lists use.
Factoring's is Rectangle below; its bins are built by a segmented sieve over
the product range: it counts one window of _SIEVE_WINDOW product slots at a
time and gathers the window's products KERNEL_BLOCK slots at a time.

Masses suffice because every reported quantity (Pr(E), C, fidelity to the
factor states, solution mass, samples) depends only on |eps|^2: target and
accepted tuples are multiplied by exactly eps = 1 and start real and equal,
so their amplitudes never pick up a relative phase.
tests/test_fockoracle.py checks this against dense complex amplitudes, per
member tuple.  So the fidelity to the factor states is the on-target bin's
share of the total (fidelity below).

Masses are never renormalized.  The state carries its current total, and
fidelity, member masses and sampling divide by it.  Conditioning multiplies
each bin's mass by its multiplier in one loop (_condition) for every caller,
in place (every application throws the pre-state away; the stored factoring
step, conditional_update, is the one place that can copy it first), one job
per KERNEL_BLOCK block of bins, which sums the block right after scaling it,
while it is still in cache; the total C_l is the math.fsum of those block
sums in index order, and Pr(E_l) = C_l / C_{l-1}.  So results are
bit-identical no matter how many worker threads run the blocks.
The solution bins keep multiplier 1, so C_l never falls below their initial
share F_0 of the mass, and every application refuses a run with no solution
bin before step 1 (NoFactorInRange, NoSolutionFound, InfeasibleSystem).
F_0 is at least one tuple in 2^63, so the total stays far from subnormal and
Pr(E_l) >= F_0 far above step_fraction's 1e-300 floor, with no rescaling.

Search and the solver share one step and one loop: condition_step conditions
and returns a StepRecord with the solution bins' share of the mass, and
amplify repeats a step until that share reaches the stop mass.

Factoring takes |eps|^2 from the value-phasor kernel in dynamics: per step,
one phase table and the target's phasor Q (one exactly reduced scalar).  Per
block of bins, the keys' table digits are cut (value_digits) and
_block_multipliers gathers each key's phasor P_v from them, forms
cos Delta = Re(Q * P_v) and |eps|^2, and sets the bin on target to exactly 1.
Since the times are fixed before a run and the multipliers depend on the
product alone, ProductStream computes a whole factoring trajectory without
storing the state: it sieves the products block by block and takes each
block through every step with that kernel, cutting its digits once for all
steps, and keeps only the block sums.  Its blocks are cut at the same bin
indices as a stored state's, so its totals and draws equal those of
conditional_update, fidelity and sample bit for bit, in memory set by the
sieve window's count slots, the kernel block and the worker count, not by N.

Both loops run their blocks through one runner, _map_blocks: up to
HOAMP_THREADS worker threads, each with one set of kernel buffers reused by
every block it runs, and at most two blocks per worker waiting at once, so
the sieve runs only as far ahead of the workers as that backlog.  The
stream's sieve counts each window on those workers too, one window ahead of
the calling thread, which gathers the window's products and cuts the blocks.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .dynamics import (
    KERNEL_BLOCK,
    KernelScratch,
    MarkerAmplitude,
    OscillatorParams,
    eps_squared_batch,
    gather_phasors,
    phase_table,
    phase_tables,
    target_phasors,
    value_digits,
)
from .errors import ConditionedMassVanished, DomainTooLarge, EmptyRange
from .rng import SplitMix64

_VANISH = 1e-300
# product slots the bin sieve counts at a time; each of its two window slots
# holds a uint16 count and a bool mask per product (3 MiB at 2^20)
_SIEVE_WINDOW = 1 << 20
# rectangles with more trial pairs are refused to bound the run time: sieving
# and conditioning take time linear in the pairs and bins.  A streamed run's
# memory depends on the sieve window (two count slots), the kernel block (one
# block of gathered products) and the worker count (a kernel scratch and two
# blocks of backlog each), not on them; a stored state, which only tests and
# the tracer build, takes 16 B per bin, twice that while
# init_uniform_factoring joins its blocks
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


def _map_blocks(blocks, job, most: int) -> list:
    """[job(block, scratch) for block in blocks(submit)], on up to
    HOAMP_THREADS worker threads, at most `most`.

    blocks(submit) gives the blocks; submit(fn, *args) hands fn to the same
    workers and returns a call that waits for fn(*args) and gives its result,
    so the code that makes the blocks can run its own work ahead on the pool
    (with one worker, that work runs when its result is asked for).
    Each thread makes one KernelScratch and passes it to every job it runs.
    At most two blocks per worker wait at once, so a generator of blocks is
    drawn only as fast as the workers take them.  The results come back in
    block order; with one worker the jobs run in a plain loop on the calling
    thread.
    """
    workers = min(_worker_count(), most)
    if workers <= 1:
        scratch = KernelScratch()
        return [job(block, scratch) for block in blocks(partial)]
    local = threading.local()

    def run(block):
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = KernelScratch()
        return job(block, scratch)

    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for block in blocks(lambda fn, *args: pool.submit(fn, *args).result):
            if len(pending) >= 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(run, block))
        results.extend(fut.result() for fut in pending)
    return results


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def factoring_ranges(N: int):
    """Trial ranges: n in [3, ceil(sqrt(N))], m in [ceil(sqrt(N+1)), ceil(N/3)]."""
    n_lo, n_hi = 3, ceil_sqrt(N)
    m_lo, m_hi = ceil_sqrt(N + 1), -(-N // 3)
    return n_lo, n_hi, m_lo, m_hi


def _block_sums(mass: np.ndarray) -> list:
    """The sum of each KERNEL_BLOCK block of masses, in index order."""
    return [float(np.sum(mass[a : a + KERNEL_BLOCK])) for a in range(0, len(mass), KERNEL_BLOCK)]


@dataclass
class TrialEnsemble:
    keys: np.ndarray       # conditioning argument per bin, ascending; (bins, B) for B markers
    counts: np.ndarray     # tuples per bin
    mass: np.ndarray       # unnormalized probability mass per bin
    domain: object         # member enumerator: members(keys, i) [, member_rows(keys, bins)]
    total: float = 1.0     # the mass the probabilities are relative to

    # benchmarks/tracing.py reads these; they go once it reads an in-program
    # trace sink instead (ROADMAP: "One factoring engine", "Benchmark v2")
    layout = property(lambda self: "binned")
    tuples = property(lambda self: None)
    weights = property(lambda self: None)

    @classmethod
    def uniform(cls, keys: np.ndarray, counts: np.ndarray, domain) -> "TrialEnsemble":
        """Mass 1/n on each of the n tuples: counts/n per bin, total 1."""
        mass = counts.astype(np.float64)
        mass *= 1.0 / int(counts.sum(dtype=np.int64))
        return cls(keys=keys, counts=counts, mass=mass, domain=domain)

    @property
    def n_entries(self) -> int:
        return int(self.counts.sum(dtype=np.int64))

    def members(self, i: int) -> np.ndarray:
        """The tuples of bin i, ascending, one per row."""
        return self.domain.members(self.keys, i)

    def share(self, i: int) -> float:
        """The probability of each member of bin i."""
        return float(self.mass[i]) / self.total / float(self.counts[i])

    def total_mass(self) -> float:
        """The sum of the masses, as conditioning totals them: the fsum of the
        KERNEL_BLOCK block sums."""
        return math.fsum(_block_sums(self.mass))

    def copy(self) -> "TrialEnsemble":
        # keys and counts are never written after construction: shared
        return TrialEnsemble(keys=self.keys, counts=self.counts, mass=self.mass.copy(),
                             domain=self.domain, total=self.total)


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float             # Pr(E_l) = C_l / C_{l-1}
    post_state: TrialEnsemble
    normalization: float           # cumulative C_l: the post-state's total


@dataclass(frozen=True)
class Rectangle:
    """Members of a factoring state: the trial pairs (n, m) of the rectangle,
    binned by their product."""

    n_lo: int
    n_hi: int
    m_lo: int
    m_hi: int

    @property
    def n_pairs(self) -> int:
        return (self.n_hi - self.n_lo + 1) * (self.m_hi - self.m_lo + 1)

    def members(self, keys: np.ndarray, i: int) -> np.ndarray:
        """Pairs with n*m = keys[i], ascending n.

        n >= ceil(v/m_hi) and n <= floor(v/m_lo) keep m = v/n in [m_lo, m_hi].
        """
        v = int(keys[i])
        lo, hi = max(self.n_lo, -(-v // self.m_hi)), min(self.n_hi, v // self.m_lo)
        pairs = [(n, v // n) for n in range(lo, hi + 1) if v % n == 0]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def trial_rectangle(N: int) -> Rectangle:
    """The trial pairs for factoring N; EmptyRange if there are none and
    DomainTooLarge past the pair cap."""
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(N)
    if n_hi < n_lo or m_hi < m_lo:
        raise EmptyRange(
            f"trial ranges for N={N} are empty: n in [{n_lo},{n_hi}], m in [{m_lo},{m_hi}]"
        )
    rect = Rectangle(n_lo, n_hi, m_lo, m_hi)
    if rect.n_pairs > _MAX_BINS:
        raise DomainTooLarge(f"N={N} has {rect.n_pairs} trial pairs; the cap of "
                             f"{_MAX_BINS} bounds the run time")
    return rect


def init_uniform_factoring(N: int) -> TrialEnsemble:
    """Uniform mass 1/n_pairs over all trial pairs for factoring N, in product bins."""
    rect = trial_rectangle(N)
    keys, counts = (np.concatenate(parts)
                    for parts in zip(*_product_blocks(rect, rect.n_lo * rect.m_lo)))
    return TrialEnsemble.uniform(keys, counts, rect)


def _key_dtype(vmax: int):
    return np.int32 if vmax < 2**31 else np.int64


def _sieve(n_lo: int, n_hi: int, m_lo: int, m_hi: int, start: int, submit=partial):
    """The distinct products n*m over the rectangle from `start` on, ascending.

    A segmented sieve: one window of _SIEVE_WINDOW product slots at a time,
    each n adding 1 at its multiples n*m that fall in the window.  Each
    window is counted by a job handed to `submit` (see _map_blocks) while
    the window before it is yielded, into one of two slots allocated here.
    The calling thread gathers the products KERNEL_BLOCK slots at a time,
    so no offsets or counts array outgrows a kernel block: it yields
    (w0, offsets, counts) per sub-range, whose products are w0 + offsets,
    with counts pairs each.  A count is at most n_hi - n_lo + 1, under 1,500
    within _MAX_BINS, so uint16 holds it.
    """
    vmin, vmax = n_lo * m_lo, n_hi * m_hi
    width = min(_SIEVE_WINDOW, vmax - vmin + 1)
    slots = [(np.empty(width, dtype=np.uint16), np.empty(width, dtype=bool)) for _ in range(2)]

    def count(w0, slot):
        win, nz = (a[: min(width, vmax + 1 - w0)] for a in slot)
        w1 = w0 + len(win)
        win.fill(0)
        # n with a multiple n*m, m_lo <= m <= m_hi, inside [w0, w1)
        for n in range(max(n_lo, -(-w0 // m_hi)), min(n_hi, (w1 - 1) // m_lo) + 1):
            first = max(n * m_lo, -(-w0 // n) * n)
            win[first - w0 : min(n * m_hi, w1 - 1) - w0 + 1 : n] += 1
        return win, np.not_equal(win, 0, out=nz)

    starts = range(start, vmax + 1, width)
    counted = submit(count, starts[0], slots[0])
    for i, w0 in enumerate(starts):
        win, nz = counted()
        if i + 1 < len(starts):
            counted = submit(count, starts[i + 1], slots[(i + 1) % 2])
        for a in range(0, len(win), KERNEL_BLOCK):
            found = np.flatnonzero(nz[a : a + KERNEL_BLOCK])
            yield w0 + a, found, win[a : a + KERNEL_BLOCK].take(found)


def _product_blocks(rect: Rectangle, start: int, submit=partial):
    """(keys, counts) of the rectangle's product bins from key `start` on,
    KERNEL_BLOCK bins at a time (the last block may be shorter), cut on the
    calling thread; `submit` runs the sieve's window counts (see _sieve).

    From the first key, or the first key of one of its blocks, these are the
    blocks a stored state's conditioning cuts.
    """
    # no block holds more bins than the rectangle has pairs
    size = min(KERNEL_BLOCK, rect.n_pairs)
    key_dtype = _key_dtype(rect.n_hi * rect.m_hi)
    keys = counts = None
    fill = size
    for w0, found, cnt in _sieve(rect.n_lo, rect.n_hi, rect.m_lo, rect.m_hi, start, submit):
        pos = 0
        while pos < len(found):
            if fill == size:
                if keys is not None:
                    yield keys, counts
                keys = np.empty(size, dtype=key_dtype)
                counts = np.empty(size, dtype=np.int32)
                fill = 0
            take = min(size - fill, len(found) - pos)
            np.add(found[pos : pos + take], w0, out=keys[fill : fill + take])
            counts[fill : fill + take] = cnt[pos : pos + take]
            fill += take
            pos += take
    if keys is not None:
        yield keys[:fill], counts[:fill]


def step_fraction(c: float, prev: float) -> float:
    """Pr(E) = c / prev, the share of the mass a step keeps;
    ConditionedMassVanished below 1e-300."""
    pr = c / prev
    if not pr >= _VANISH:
        raise ConditionedMassVanished(f"surviving mass fraction {pr:.3e}")
    return min(pr, 1.0) if pr <= 1.0 + 1e-9 else pr  # guard rounding overshoot only


def _condition(state: TrialEnsemble, block_multipliers) -> MeasurementOutcome:
    """The conditioning loop: scale each bin's mass in place, total it, report Pr.

    block_multipliers(lo, hi, scratch) gives the real multipliers of bins
    [lo, hi), one KERNEL_BLOCK block at a time, so kernel temporaries stay in
    cache; scratch is the KernelScratch of the _map_blocks worker running the
    block.  Each block is summed right after it is scaled, while it is still
    in cache, and the block sums are combined with math.fsum in index order.
    """
    prev, arr = state.total, state.mass

    def job(lo, scratch):
        seg = arr[lo : lo + KERNEL_BLOCK]
        seg *= block_multipliers(lo, lo + len(seg), scratch)
        return float(np.sum(seg))       # while the block is in cache

    c = math.fsum(_map_blocks(lambda submit: range(0, len(arr), KERNEL_BLOCK), job,
                              -(-len(arr) // KERNEL_BLOCK)))
    pr = step_fraction(c, prev)
    state.total = c
    return MeasurementOutcome(probability=pr, post_state=state, normalization=c)


def apply_entry_multipliers(state: TrialEnsemble, multipliers) -> MeasurementOutcome:
    """Multiply each bin's mass by its real multiplier, in place, and report Pr.

    `multipliers` holds one factor per bin (|eps|^2 or a product of them).
    Search and the solver condition through here, and factoring through the
    same loop, so identical inputs give bit-identical outcomes across modules.
    """
    return _condition(state, lambda lo, hi, _: multipliers[lo:hi])


@dataclass(frozen=True)
class StepRecord:
    """One conditioning step of search or the solver."""

    l: int
    t_l: float
    alpha_mag: float
    pr_E: float                    # joint over the markers
    C_l: float
    solution_mass: float           # share of the total in the solution bins


def condition_step(state: TrialEnsemble, multipliers, solved: np.ndarray, l: int,
                   t_l: float, alpha_mag: float):
    """Condition on one multiplier per bin; returns (state, StepRecord), whose
    solution mass is the share of the post-state in the `solved` bins."""
    out = apply_entry_multipliers(state, multipliers)
    return state, StepRecord(l=l, t_l=t_l, alpha_mag=alpha_mag, pr_E=out.probability,
                             C_l=out.normalization,
                             solution_mass=math.fsum(state.mass[solved]) / state.total)


def amplify(state: TrialEnsemble, step, times, stop_mass: float):
    """state, rec = step(state, l, t) for l = 1, 2, ... and t from `times`, until
    a record's solution mass reaches stop_mass; returns (state, records)."""
    records = []
    for l, t in enumerate(times, start=1):
        state, rec = step(state, l, t)
        records.append(rec)
        if rec.solution_mass >= stop_mass:
            break
    return state, records


def _index_of(keys: np.ndarray, v: int):
    """The index of key v among ascending keys, or None."""
    if keys[0] <= v <= keys[-1]:
        i = int(np.searchsorted(keys, keys.dtype.type(v)))
        if keys[i] == v:
            return i
    return None


def _key_digits(table, keys: np.ndarray, scratch: KernelScratch):
    """value_digits of one block of ascending product keys."""
    return value_digits(table, keys, (int(keys[0]), int(keys[-1])), out=scratch)


def _block_multipliers(table, digits, q: complex, amag: float, hit,
                       scratch: KernelScratch) -> np.ndarray:
    """|eps|^2 for one block of product keys, given as their digits, against
    the target phasor q; exactly 1 at index `hit`, the bin whose key is the
    target term, if the block holds it."""
    z = gather_phasors(table, digits, out=scratch)
    z *= q
    w = eps_squared_batch(amag, z.real, out=scratch.get("w", digits.shape))
    if hit is not None:
        w[hit] = 1.0
    return w


def conditional_update(state: TrialEnsemble, params: OscillatorParams,
                       alpha: MarkerAmplitude, target_term: int, t: float,
                       in_place: bool = False) -> MeasurementOutcome:
    """One conditional measurement against the target product term.

    Every bin's mass is multiplied by |eps|^2 for the phase difference
    between its product term and the target, and the surviving mass Pr(E)
    is recorded, on `state` itself with `in_place` and else on a copy.
    """
    if not in_place:
        state = state.copy()
    amag = alpha.magnitude
    keys = state.keys
    # keys ascend, so the end bins bound every |key|
    table = phase_table(params, t, max(abs(int(keys[0])), abs(int(keys[-1]))))
    q = target_phasors(params, t, [target_term])[0]
    return _condition(state, lambda a, b, scratch: _block_multipliers(
        table, _key_digits(table, keys[a:b], scratch), q, amag,
        _index_of(keys[a:b], target_term), scratch))


class ProductStream:
    """A factoring trajectory through fixed steps, with no stored state.

    `steps` holds (t, |alpha|) per iteration; one phase_tables call builds
    every step's phase table up front, all of one layout.  One pass of the
    product sieve (_product_blocks, its windows counted on the _map_blocks
    workers one window ahead, its blocks cut on the calling thread) cuts the
    rectangle's bins into the global KERNEL_BLOCK blocks that a stored
    state's conditioning uses, and the workers take each block from its
    uniform masses through every step: its keys' digits and on-target index
    are found once, then each step gathers phasors, forms |eps|^2 and scales
    the masses.  Per block only the mass sum after each step is kept, and of
    the on-target bin its count and mass, `hit`, which its multiplier of
    exactly 1 never changes.  So total(l), the fidelity of `hit` after step
    l and sample(l, rng) equal those of a stored state after l
    conditional_update calls, bit for bit; a draw re-sieves and recomputes only the block it
    falls in.

    `progress`, if given, is called from the calling thread with the share
    of the product range sieved so far, each time it passes another tenth.
    """

    def __init__(self, rect: Rectangle, params: OscillatorParams, target_term: int, steps,
                 progress=None):
        self.rect, self.target_term = rect, target_term
        # the bound a stored state's table gets: its last key, n_hi * m_hi;
        # so every step's table has the same layout, and one block's digits
        # serve every step (gather_phasors checks it)
        vmax = rect.n_hi * rect.m_hi
        tables = phase_tables(params, [t for t, _ in steps], vmax)
        self._steps = [(table, target_phasors(params, t, [target_term])[0], amag)
                       for table, (t, amag) in zip(tables, steps)]
        self._inv = 1.0 / rect.n_pairs
        self._scratch = KernelScratch()     # the draws'
        self.starts = []        # first key of each block
        self.hit = None         # (count, mass) of the on-target bin
        self.sums = self._run(progress)     # per block, the mass sum after steps 0..L

    def _trajectory(self, keys, counts, hit, scratch):
        """A block's masses before and after each step, as TrialEnsemble.uniform
        and _condition compute them: one array in `scratch`, yielded first
        with the uniform masses and then after each step scales it in place.
        `hit` is the index of the on-target bin, or None; the keys' digits
        are cut once, for every step."""
        mass = np.multiply(counts, self._inv, out=scratch.get("mass", counts.shape))
        yield mass
        if self._steps:
            digits = _key_digits(self._steps[0][0], keys, scratch)
        for table, q, amag in self._steps:
            mass *= _block_multipliers(table, digits, q, amag, hit, scratch)
            yield mass

    def _run(self, progress) -> list:
        r = self.rect
        vmax, tenths = r.n_hi * r.m_hi, 0

        def blocks(submit):
            nonlocal tenths
            for keys, counts in _product_blocks(r, r.n_lo * r.m_lo, submit):
                self.starts.append(int(keys[0]))
                last = int(keys[-1])
                if progress is not None and 10 * last >= (tenths + 1) * vmax:
                    tenths = 10 * last // vmax
                    progress(last / vmax)
                yield keys, counts

        def job(block, scratch):
            keys, counts = block
            hit, sums = _index_of(keys, self.target_term), []
            for mass in self._trajectory(keys, counts, hit, scratch):
                sums.append(np.sum(mass))
            if hit is not None:
                self.hit = (int(counts[hit]), float(mass[hit]))
            return sums

        return _map_blocks(blocks, job, -(-r.n_pairs // KERNEL_BLOCK))

    def total(self, l: int) -> float:
        """C_l, the total mass after step l: 1 before the first step, as a
        uniform TrialEnsemble's total."""
        return math.fsum(float(s[l]) for s in self.sums) if l else 1.0

    def sample(self, l: int, rng: SplitMix64) -> tuple:
        """One pair drawn from the state after step l, as sample() draws it."""
        keys = None

        def block_mass(b):
            nonlocal keys
            keys, counts = next(_product_blocks(self.rect, self.starts[b]))
            hit = _index_of(keys, self.target_term)
            return next(islice(self._trajectory(keys, counts, hit, self._scratch), l, None))

        _, i = _draw(rng, [float(s[l]) for s in self.sums], block_mass)
        return _pick(self.rect.members(keys, i), rng)


def fidelity(count: int, mass: float, total: float) -> float:
    """Uhlmann fidelity (sum_f sqrt(p_f / k))^2 to the k = count factor
    states, the members of the on-target bin, each with probability
    p_f = mass / total / k (their amplitudes are real and equal)."""
    acc = 0.0
    for _ in range(count):
        acc += math.sqrt((1.0 / count) * (mass / total / count))
    return min(acc * acc, 1.0)


def member_masses(state: TrialEnsemble, bins=None) -> list:
    """(tuple, probability) for every member of the given bins (default:
    all), ascending by tuple, each member holding an equal share of its bin.

    A domain with member_rows(keys, bins) hands out every member at once,
    and the list comes from one gather, one repeat of the shares and one
    lexsort; otherwise the bins' members are listed bin by bin."""
    member_rows = getattr(state.domain, "member_rows", None)
    if member_rows is not None:
        bins = np.arange(len(state.counts)) if bins is None else np.asarray(bins, dtype=np.intp)
        bins = bins[state.counts[bins] > 0]
        rows = member_rows(state.keys, bins)
        counts = state.counts[bins]
        shares = np.repeat(state.mass[bins] / state.total / counts, counts)
        # by tuple, then by share, as the sort of (tuple, share) pairs orders them
        order = np.lexsort((shares, *rows.T[::-1]))
        return list(zip(map(tuple, rows[order].tolist()), shares[order].tolist()))
    out = []
    for i in range(len(state.counts)) if bins is None else bins:
        if state.counts[i]:
            share = state.share(i)
            out.extend((tuple(m), share) for m in state.members(i).tolist())
    out.sort()
    return out


def _draw(rng: SplitMix64, sums: list, block_mass) -> tuple:
    """(block, index in it) of a bin drawn by mass: x uniform in [0, fsum(sums)),
    the block where the running sum of the block sums passes x, then
    cumulative-sum inversion inside it; block_mass(b) gives block b's masses."""
    x = rng.uniform() * math.fsum(sums)
    acc = 0.0
    for b, s in enumerate(sums):
        if acc + s > x or b == len(sums) - 1:
            cum = np.cumsum(block_mass(b))
            cum += acc
            return b, min(int(np.searchsorted(cum, x, side="right")), len(cum) - 1)
        acc += s


def _pick(members: np.ndarray, rng: SplitMix64) -> tuple:
    """One of a bin's members, uniformly."""
    j = min(int(rng.uniform() * len(members)), len(members) - 1)
    return tuple(int(v) for v in members[j])


def sample(state: TrialEnsemble, rng_seed) -> tuple:
    """Draw one occupation tuple from the state's probability distribution.

    Deterministic given the seed: cumulative-sum inversion over the bins in
    ascending key order, then one member of the drawn bin, uniformly.
    """
    rng = rng_seed if isinstance(rng_seed, SplitMix64) else SplitMix64(int(rng_seed))
    m = state.mass
    b, i = _draw(rng, _block_sums(m), lambda b: m[b * KERNEL_BLOCK : (b + 1) * KERNEL_BLOCK])
    return _pick(state.members(b * KERNEL_BLOCK + i), rng)
