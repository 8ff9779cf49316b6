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
as a (count, arity) array, which sampling uses, and member_rows(keys, bins)
those of several bins, bin after bin, which the solution lists use.
Factoring's is Rectangle below; its bins are built by a segmented sieve over
the product range: it counts one window of _SIEVE_WINDOW product slots
(_windows) into one window slot and gathers the window's products
KERNEL_BLOCK slots at a time.

A state is conditioned, totalled and sampled in blocks of bins, cut by one
rule (_blocks): a state with one column of dense keys at KERNEL_BLOCK-wide
key ranges counted from its first key, any other state every KERNEL_BLOCK
bins.  For factoring those key ranges are the sieve's sub-ranges, so a block
is what the sieve gathers at once.

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
block of bins at a time, summing the block right after scaling it, while it
is still in cache; the total C_l is the math.fsum of those block sums in
index order, and Pr(E_l) = C_l / C_{l-1}.
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
steps, and keeps only the block sums.  Its blocks are the sieve's
sub-ranges, which are a stored state's blocks, so its totals and draws
equal those of conditional_update, fidelity and sample bit for bit, in
memory per process set by the sieve's window slot, the kernel block and one
kernel scratch, not by N.

The stream runs in up to HOAMP_THREADS worker processes (_worker_count):
the calling process and children made by os.fork (_in_processes).  The
processes take the sieve windows off one shared queue, so a process on a
faster CPU takes more; each window is sieved once, by the process that
takes it, and each process sends back its blocks' sums.  Each process has
its own interpreter, so the kernel's many small numpy calls do not queue
for one interpreter lock, as they would on threads.
A stored state's _condition runs its blocks in a plain loop.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from array import array
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
# product slots of one sieve window (_windows), a whole number of
# KERNEL_BLOCK sub-ranges: 2^20; its window slot holds a uint16 count and a
# bool mask per product (3 MiB)
_SIEVE_WINDOW = 16 * KERNEL_BLOCK
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
    the calling process runs every item in order.  A streamed pass makes
    one such call, over its sieve windows.

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


def _blocks(keys: np.ndarray) -> list:
    """(lo, hi) of each block of a state's bins, in order: the bins that
    conditioning scales and sums at once, and whose sums totals and draws
    combine.

    A state with one key column whose keys fill at least an eighth of their
    span (factoring's products, about a third; search's parity) is cut at
    KERNEL_BLOCK-wide key ranges counted from its first key k0: a block
    holds the bins whose keys lie in [k0 + j*KERNEL_BLOCK, k0 + (j+1)*
    KERNEL_BLOCK), for each j with any.  For factoring, k0 = n_lo*m_lo and
    the blocks are the product sieve's sub-ranges, as ProductStream takes
    them, and the solver's embedding of factoring cuts the same.  Keys are
    distinct, so no block holds more than KERNEL_BLOCK bins, and the span
    bound keeps the blocks under 8 times as many as below.  Any other state
    (several key columns, or one of sparse keys) is cut every KERNEL_BLOCK
    bins.
    """
    n = len(keys)
    col = keys.reshape(n) if keys.ndim == 1 or keys.shape[1] == 1 else None
    if col is None or not n or 8 * n < int(col[-1]) - int(col[0]) + 1:
        return [(lo, min(lo + KERNEL_BLOCK, n)) for lo in range(0, n, KERNEL_BLOCK)]
    cuts = (np.flatnonzero(np.diff((col - col[0]) // KERNEL_BLOCK)) + 1).tolist()
    return list(zip([0] + cuts, cuts + [n]))


def _block_sums(mass: np.ndarray, blocks: list) -> list:
    """The sum of each block of masses, in order."""
    return [float(np.sum(mass[lo:hi])) for lo, hi in blocks]


@dataclass
class TrialEnsemble:
    keys: np.ndarray       # conditioning argument per bin, ascending; (bins, B) for B markers
    counts: np.ndarray     # tuples per bin
    mass: np.ndarray       # unnormalized probability mass per bin
    domain: object         # member enumerator: members(keys, i), member_rows(keys, bins)
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

    def total_mass(self) -> float:
        """The sum of the masses, as conditioning totals them: the fsum of the
        block sums (_blocks)."""
        return math.fsum(_block_sums(self.mass, _blocks(self.keys)))

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

    def member_rows(self, keys: np.ndarray, bins) -> np.ndarray:
        """The members of the given bins, bin after bin."""
        return np.concatenate([np.empty((0, 2), np.int64),
                               *(self.members(keys, i) for i in bins)])


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
    """Uniform mass 1/n_pairs over all trial pairs for factoring N, in product
    bins: the blocks _sieve yields over the sieve windows (_windows), which
    a streamed pass runs too."""
    rect = trial_rectangle(N)
    blocks = (block for window in _windows(rect) for block in _sieve(rect, *window))
    keys, counts = (np.concatenate(parts) for parts in zip(*blocks))
    return TrialEnsemble.uniform(keys, counts, rect)


def _key_dtype(vmax: int):
    return np.int32 if vmax < 2**31 else np.int64


def _sieve_window(rect: Rectangle, w0: int, slot: np.ndarray) -> np.ndarray:
    """The window of product slots w0, w0 + 1, ... in the uint16 `slot`, cut
    at the rectangle's last product: each slot's number of pairs.

    Each n adds 1 at its multiples n*m that fall in the window.  A count is
    at most n_hi - n_lo + 1, under 1,500 within _MAX_BINS, so uint16 holds
    it.
    """
    n_lo, n_hi, m_lo, m_hi = rect.n_lo, rect.n_hi, rect.m_lo, rect.m_hi
    win = slot[: min(len(slot), n_hi * m_hi + 1 - w0)]
    w1 = w0 + len(win)
    win.fill(0)
    # n with a multiple n*m, m_lo <= m <= m_hi, inside [w0, w1)
    for n in range(max(n_lo, -(-w0 // m_hi)), min(n_hi, (w1 - 1) // m_lo) + 1):
        first = max(n * m_lo, -(-w0 // n) * n)
        win[first - w0 : min(n * m_hi, w1 - 1) - w0 + 1 : n] += 1
    return win


def _sieve(rect: Rectangle, start: int, stop: int):
    """The rectangle's product bins in [start, stop), at most one sieve
    window, as (keys, counts) per KERNEL_BLOCK-slot sub-range [start +
    j*KERNEL_BLOCK, start + (j+1)*KERNEL_BLOCK) that holds any, ascending.

    The range is counted into one window slot (_sieve_window), cut at the
    rectangle's last product, then gathered a sub-range at a time, so no
    keys or counts array outgrows a kernel block.  A window (_windows)
    starts a whole number of KERNEL_BLOCK slots past n_lo*m_lo, so its
    sub-ranges are a stored state's blocks (_blocks); a draw's range, from a
    block's first key to the end of its sub-range, yields that one block.
    """
    key_dtype = _key_dtype(rect.n_hi * rect.m_hi)
    win = _sieve_window(rect, start, np.empty(stop - start, dtype=np.uint16))
    found_in = win != 0
    for a in range(0, len(win), KERNEL_BLOCK):
        found = np.flatnonzero(found_in[a : a + KERNEL_BLOCK])
        if len(found):
            yield (np.add(found, start + a, dtype=key_dtype),
                   win[a : a + KERNEL_BLOCK].take(found).astype(np.int32))


def _windows(rect: Rectangle) -> list:
    """(start, stop) of each sieve window of the rectangle's product range:
    [v0 + j*_SIEVE_WINDOW, v0 + (j+1)*_SIEVE_WINDOW) from v0 = n_lo*m_lo,
    the last one cut at n_hi*m_hi + 1.  A window is a whole number of
    KERNEL_BLOCK-slot sub-ranges, so its blocks are whole blocks of a
    stored state.  A streamed pass hands the windows to its workers, and
    they need no finer cut: bins thin out along the range by themselves (at
    N = 205,193 the first of 30 windows holds 7.2% of them and the last
    0.05%).
    """
    start, end = rect.n_lo * rect.m_lo, rect.n_hi * rect.m_hi + 1
    return [(w0, min(w0 + _SIEVE_WINDOW, end)) for w0 in range(start, end, _SIEVE_WINDOW)]


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
    [lo, hi), one block (_blocks) at a time, so kernel temporaries stay in
    cache; scratch is one KernelScratch for every block of the call.  Each
    block is summed right after it is scaled, while it is still in cache,
    and the block sums are combined with math.fsum in index order.
    """
    prev, arr, scratch, sums = state.total, state.mass, KernelScratch(), []
    for lo, hi in _blocks(state.keys):
        seg = arr[lo:hi]
        seg *= block_multipliers(lo, hi, scratch)
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
    product sieve (_sieve) over the sieve windows (_windows) yields the
    rectangle's bins a KERNEL_BLOCK-slot sub-range at a time, the blocks a
    stored state's conditioning cuts (_blocks), and takes each block from
    its uniform masses through every step: its keys' digits and on-target
    index are found once, then each step gathers phasors, forms |eps|^2 and
    scales the masses.  The worker processes take the windows off one queue
    in one _in_processes round, each window sieving its own slots.  Per
    block only the mass sum after each step is kept, and of the on-target
    bin its count and mass, `hit`, which its multiplier of exactly 1 never
    changes.  So total(l), the fidelity of `hit` after step l and
    sample(l, rng) equal those of a stored state after l conditional_update
    calls, bit for bit, however many processes run the pass; a draw
    re-sieves and recomputes only the block it falls in, from its first key
    to the end of its sub-range.

    `progress`, if given, is called in the calling process with the share
    of the product range below the last key it has sieved, each time that
    passes another tenth, and with 1.0 once every window is done.
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

    def _window_blocks(self, window, sieved=None) -> list:
        """(first key, mass sums after steps 0..L, on-target (count, mass) or
        None) for each block of one window (start, stop) from _windows;
        sieved(last key), if given, is called after each block."""
        out = []
        for keys, counts in _sieve(self.rect, *window):
            # 8 bytes a sum, against 32 as floats in a list: the calling
            # process collects the sums of thousands of blocks
            hit, sums = _index_of(keys, self.target_term), array("d")
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

        run = partial(self._window_blocks, sieved=None if progress is None else sieved)
        blocks = [block for part in _in_processes(run, _windows(r), _worker_count())
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
            first, r = self.starts[b], self.rect
            # to the end of the KERNEL_BLOCK-slot sub-range that holds `first`
            end = first - (first - r.n_lo * r.m_lo) % KERNEL_BLOCK + KERNEL_BLOCK
            keys, counts = next(_sieve(r, first, end))
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
    all), ascending by tuple, each member holding an equal share of its bin,
    mass / total / count.  The domain's member_rows hands out every member
    at once, and the list comes from one repeat of the shares and one
    lexsort."""
    bins = np.arange(len(state.counts)) if bins is None else np.asarray(bins, dtype=np.intp)
    bins = bins[state.counts[bins] > 0]
    rows = state.domain.member_rows(state.keys, bins)
    counts = state.counts[bins]
    shares = np.repeat(state.mass[bins] / state.total / counts, counts)
    # by tuple, then by share, as the sort of (tuple, share) pairs orders them
    order = np.lexsort((shares, *rows.T[::-1]))
    return list(zip(map(tuple, rows[order].tolist()), shares[order].tolist()))


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
    m, blocks = state.mass, _blocks(state.keys)
    b, i = _draw(rng, _block_sums(m, blocks), lambda b: m[slice(*blocks[b])])
    return _pick(state.members(blocks[b][0] + i), rng)
