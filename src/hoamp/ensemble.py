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
time into one window slot and gathers the window's products KERNEL_BLOCK
slots at a time.

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
step, conditional_update, is the one place that can copy it first), one
KERNEL_BLOCK block of bins at a time, summing the block right after scaling
it, while it is still in cache; the total C_l is the math.fsum of those
block sums in index order, and Pr(E_l) = C_l / C_{l-1}.
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
conditional_update, fidelity and sample bit for bit, in memory per process
set by the sieve's window slot, the kernel block and one kernel scratch,
not by N.

The stream runs in up to HOAMP_THREADS worker processes (_worker_count):
the calling process and children made by os.fork (_in_processes).  Its
blocks are split into pieces of consecutive blocks, which the processes
take off one shared queue, so a process on a faster CPU takes more; each
piece sieves its own key range, and each process sends back its blocks'
sums.  A piece starts at a global block boundary: one first round, on the
same queue, counts the bins of each sieve window's KERNEL_BLOCK-slot
sub-ranges, which places every piece's first block in its sub-range.
Each process has its own interpreter, so the kernel's many small numpy
calls do not queue for one interpreter lock, as they would on threads.
A stored state's _condition runs its blocks in a plain loop.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
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
from .errors import ConditionedMassVanished, DomainTooLarge, EmptyRange, WorkerFailed
from .rng import SplitMix64

_VANISH = 1e-300
# product slots the bin sieve counts at a time; its window slot holds a
# uint16 count and a bool mask per product (3 MiB at 2^20)
_SIEVE_WINDOW = 1 << 20
# at most this many entries in a work queue of _in_processes: 4 KiB of
# records, which any pipe buffers whole before a worker reads them
_QUEUE_MAX = 1024
# rectangles with more trial pairs are refused to bound the run time: sieving
# and conditioning take time linear in the pairs and bins.  A streamed run's
# memory, in each of its processes, depends on the sieve window (one slot),
# the kernel block (one block of gathered products) and one kernel scratch,
# not on them; a stored state, which only tests and the tracer build, takes
# 16 B per bin, twice that while init_uniform_factoring joins its blocks
_MAX_BINS = 1 << 30


def _worker_count() -> int:
    """The processes a streamed pass may use: HOAMP_THREADS if it is a
    positive integer, else one per usable CPU, and never more than the
    usable CPUs (this process's affinity set, or os.cpu_count() where the
    platform has none)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        cap = int(os.environ.get("HOAMP_THREADS", ""))
    except ValueError:
        cap = 0
    return min(cap, cpus) if cap > 0 else cpus


def _in_processes(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on up to `workers` processes.

    The calling process and up to workers - 1 children made by os.fork each
    take the next entry off one shared work queue until it is empty, so a
    process that runs faster, or on a CPU less loaded by other tenants,
    takes more of them.  The queue is a pipe filled, before the fork, with
    one 4-byte record per entry: an entry is one item, or a run of
    consecutive ones where there are more than _QUEUE_MAX items.  Entries
    go out in item order.  With one worker, or where there is no os.fork,
    the calling process runs every item in order.

    A child sends back its (index, result) pairs through a pipe, pickled,
    and ends in os._exit, so it runs none of the caller's exit handlers and
    flushes none of its buffers.  The caller reads every child's results,
    then reaps every child; on any exception of its own, an interrupt
    included, it kills the children first.  A child that raised, or ended
    without sending its results, raises WorkerFailed, with the child's
    traceback as a note.
    """
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    per = -(-len(items) // _QUEUE_MAX)
    queue, w = os.pipe()
    try:
        os.write(w, b"".join(a.to_bytes(4, "little") for a in range(0, len(items), per)))
    finally:
        os.close(w)

    def take() -> list:
        done = []
        while record := os.read(queue, 4):      # one whole record: written at once
            a = int.from_bytes(record, "little")
            done.extend((i, fn(items[i])) for i in range(a, min(a + per, len(items))))
        return done

    children, finished = [], False
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(take, r, w)      # never returns
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        done = take()
        for pid, pipe in children:
            done.extend(_child_result(pid, pipe))
        finished = True
    finally:
        os.close(queue)
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(items)
    for i, value in done:
        results[i] = value
    return results


def _child(job, r: int, w: int):
    """A forked child's whole life: run job, send ("ok", result) or
    ("raised", traceback text) through pipe end w, and end the process."""
    code = 1
    try:
        os.close(r)
        try:
            outcome = ("ok", job())
        except BaseException:
            outcome = ("raised", traceback.format_exc())
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _child_result(pid: int, pipe):
    """The result child `pid` sent through `pipe`; WorkerFailed if it raised
    or sent none."""
    try:
        status, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise WorkerFailed(f"worker process {pid} ended without sending its result") from None
    if status == "ok":
        return value
    err = WorkerFailed(f"worker process {pid} raised {value.rstrip().splitlines()[-1]}")
    err.add_note(f"traceback in worker process {pid}:\n{value.rstrip()}")
    raise err


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
    # trace sink instead (ROADMAP item 7, "Benchmark v2")
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


def _window_width(rect: Rectangle) -> int:
    """Product slots per sieve window: _SIEVE_WINDOW, or the whole product
    range if that is narrower."""
    return min(_SIEVE_WINDOW, rect.n_hi * rect.m_hi - rect.n_lo * rect.m_lo + 1)


def _sieve_window(rect: Rectangle, w0: int, slot: np.ndarray) -> np.ndarray:
    """The window of product slots w0, w0 + 1, ... in `slot`, cut at the
    rectangle's last product: each slot's number of pairs (a uint16 slot),
    or whether any pair has that product (a bool slot, cheaper to fill).

    Each n adds 1 at (or marks) its multiples n*m that fall in the window.
    A count is at most n_hi - n_lo + 1, under 1,500 within _MAX_BINS, so
    uint16 holds it.
    """
    n_lo, n_hi, m_lo, m_hi = rect.n_lo, rect.n_hi, rect.m_lo, rect.m_hi
    win = slot[: min(len(slot), n_hi * m_hi + 1 - w0)]
    w1 = w0 + len(win)
    win.fill(0)
    mark = win.dtype == bool
    # n with a multiple n*m, m_lo <= m <= m_hi, inside [w0, w1)
    for n in range(max(n_lo, -(-w0 // m_hi)), min(n_hi, (w1 - 1) // m_lo) + 1):
        first = max(n * m_lo, -(-w0 // n) * n)
        multiples = slice(first - w0, min(n * m_hi, w1 - 1) - w0 + 1, n)
        if mark:
            win[multiples] = True
        else:
            win[multiples] += 1
    return win


def _sieve(rect: Rectangle, start: int, stop=None):
    """The distinct products n*m over the rectangle from `start` on, ascending,
    and below `stop` if given (the windows then count no slot past it).

    A segmented sieve: one window of product slots at a time is counted into
    one window slot (_sieve_window), then gathered KERNEL_BLOCK slots at a
    time, so no offsets or counts array outgrows a kernel block: it yields
    (w0, offsets, counts) per sub-range, whose products are w0 + offsets,
    with counts pairs each.
    """
    width, end = _window_width(rect), rect.n_hi * rect.m_hi + 1
    if stop is not None:
        end = min(end, stop)
    slot = np.empty(width, dtype=np.uint16)
    nz = np.empty(width, dtype=bool)
    for w0 in range(start, end, width):
        win = _sieve_window(rect, w0, slot[: end - w0])
        found_in = np.not_equal(win, 0, out=nz[: len(win)])
        for a in range(0, len(win), KERNEL_BLOCK):
            found = np.flatnonzero(found_in[a : a + KERNEL_BLOCK])
            yield w0 + a, found, win[a : a + KERNEL_BLOCK].take(found)


def _product_blocks(rect: Rectangle, start: int, skip: int = 0, stop=None):
    """(keys, counts) of the rectangle's product bins from key `start` on,
    all but the first `skip` of them, and below `stop` if given,
    KERNEL_BLOCK bins at a time (the last block may be shorter).

    From the first key, or the first key of one of its blocks, or from a
    slot below a block's first bin with `skip` the bins between them, these
    are the blocks a stored state's conditioning cuts; with `stop` past the
    bin after a block, that block is whole.
    """
    # no block holds more bins than the rectangle has pairs
    size = min(KERNEL_BLOCK, rect.n_pairs)
    key_dtype = _key_dtype(rect.n_hi * rect.m_hi)
    keys = counts = None
    fill = size
    for w0, found, cnt in _sieve(rect, start, stop):
        if skip >= len(found):
            skip -= len(found)
            continue
        pos, skip = skip, 0
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


def _sub_range_bins(rect: Rectangle, w0: int) -> list:
    """The number of product bins in each KERNEL_BLOCK-slot sub-range of the
    sieve window that starts at w0, as _sieve gathers them."""
    marks = _sieve_window(rect, w0, np.empty(_window_width(rect), dtype=bool))
    return [int(np.count_nonzero(marks[a : a + KERNEL_BLOCK]))
            for a in range(0, len(marks), KERNEL_BLOCK)]


def _pieces(rect: Rectangle, workers: int) -> list:
    """(start, skip, blocks, stop) per piece of the rectangle's KERNEL_BLOCK
    blocks of product bins, for islice(_product_blocks(rect, start, skip,
    stop), blocks): contiguous runs of blocks, in order, for the workers of
    a pass to take one at a time.

    With one worker the one piece is every block.  Otherwise one round
    (_in_processes over the windows) counts the bins of every sieve
    window's KERNEL_BLOCK-slot sub-ranges.  A piece then starts at the
    sub-range that holds its first bin and stops at the end of the one that
    holds the next piece's first bin, so neighbouring pieces sieve at most
    two sub-ranges twice.  Pieces shrink as the blocks left do, each a
    1/(2 * workers) share of them (at least one block), so the workers
    finish close together.
    """
    vmin, width = rect.n_lo * rect.m_lo, _window_width(rect)
    if workers == 1:
        return [(vmin, 0, None, None)]
    windows = range(vmin, rect.n_hi * rect.m_hi + 1, width)
    per_window = _in_processes(partial(_sub_range_bins, rect), windows, workers)
    # (first slot, bins) of every sub-range, in order
    subs = [(w0 + a, n) for w0, bins in zip(windows, per_window)
            for a, n in zip(range(0, width, KERNEL_BLOCK), bins)]
    firsts, left, b0 = [], -(-sum(n for _, n in subs) // KERNEL_BLOCK), 0
    j, before = 0, 0        # before: the bins of the sub-ranges before j
    while left:
        while before + subs[j][1] <= b0 * KERNEL_BLOCK:
            before += subs[j][1]
            j += 1
        size = -(-left // (2 * workers))
        firsts.append((subs[j][0], b0 * KERNEL_BLOCK - before, size))
        b0, left = b0 + size, left - size
    stops = [start + KERNEL_BLOCK for start, _, _ in firsts[1:]] + [None]
    return [(*first, stop) for first, stop in zip(firsts, stops)]


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
    cache; scratch is one KernelScratch for every block of the call.  Each
    block is summed right after it is scaled, while it is still in cache,
    and the block sums are combined with math.fsum in index order.
    """
    prev, arr, scratch, sums = state.total, state.mass, KernelScratch(), []
    for lo in range(0, len(arr), KERNEL_BLOCK):
        seg = arr[lo : lo + KERNEL_BLOCK]
        seg *= block_multipliers(lo, lo + len(seg), scratch)
        sums.append(float(np.sum(seg)))     # while the block is in cache
    c = math.fsum(sums)
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
    product sieve (_product_blocks) cuts the rectangle's bins into the
    global KERNEL_BLOCK blocks that a stored state's conditioning uses, and
    takes each block from its uniform masses through every step: its keys'
    digits and on-target index are found once, then each step gathers
    phasors, forms |eps|^2 and scales the masses.  The pass runs as pieces
    of consecutive blocks (_pieces) that the worker processes take off one
    queue (_in_processes), each piece sieving its own key range.  Per block
    only the mass sum after each step is kept, and of the on-target bin its
    count and mass, `hit`, which its multiplier of exactly 1 never changes.
    So total(l), the fidelity of `hit` after step l and sample(l, rng) equal
    those of a stored state after l conditional_update calls, bit for bit,
    however many processes run the pass; a draw re-sieves and recomputes
    only the block it falls in.

    `progress`, if given, is called in the calling process with the share
    of the product range below the last key it has sieved, each time that
    passes another tenth, and with 1.0 once every piece is done.
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
        self._scratch = KernelScratch()     # each process's, the draws' too
        blocks = self._run(progress)
        self.starts = [key for key, _, _ in blocks]     # first key of each block
        # per block, the mass sum after steps 0..L
        self.sums = [sums for _, sums, _ in blocks]
        # (count, mass) of the on-target bin
        self.hit = next((hit for _, _, hit in blocks if hit is not None), None)

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

    def _piece(self, piece, sieved=None) -> list:
        """(first key, mass sums after steps 0..L, on-target (count, mass) or
        None) for each block of one piece (start, skip, blocks, stop) from
        _pieces; sieved(last key), if given, is called after each block."""
        start, skip, n_blocks, stop = piece
        out = []
        for keys, counts in islice(_product_blocks(self.rect, start, skip, stop), n_blocks):
            hit, sums = _index_of(keys, self.target_term), []
            for mass in self._trajectory(keys, counts, hit, self._scratch):
                sums.append(float(np.sum(mass)))
            out.append((int(keys[0]), sums,
                        None if hit is None else (int(counts[hit]), float(mass[hit]))))
            if sieved is not None:
                sieved(int(keys[-1]))
        return out

    def _run(self, progress) -> list:
        r = self.rect
        lo, hi, caller, tenths = r.n_lo * r.m_lo, r.n_hi * r.m_hi, os.getpid(), 0

        def sieved(last):
            # only the calling process reports
            nonlocal tenths
            share = (last - lo) / max(hi - lo, 1)
            if os.getpid() == caller and tenths < int(10 * share) < 10:
                tenths = int(10 * share)
                progress(share)

        workers = min(_worker_count(), -(-r.n_pairs // KERNEL_BLOCK))
        run = partial(self._piece, sieved=None if progress is None else sieved)
        blocks = [block for part in _in_processes(run, _pieces(r, workers), workers)
                  for block in part]
        if progress is not None:
            progress(1.0)
        return blocks

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
