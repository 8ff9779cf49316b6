"""Trial ensembles, conditional measurements, fidelity, sampling."""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from hoamp import cli, ensemble
from hoamp.dynamics import (KERNEL_BLOCK, KernelScratch, MarkerAmplitude, OscillatorParams,
                            epsilon_overlap, gather_phasors, phase_delta, phase_table,
                            target_phasors, value_digits)
from hoamp.ensemble import (TrialEnsemble, apply_entry_multipliers, ceil_sqrt,
                            conditional_update, factoring_ranges, fidelity,
                            init_uniform_factoring, member_masses, sample, trial_rectangle)
from hoamp.errors import (ConditionedMassVanished, DomainTooLarge, EmptyRange,
                          NoFactorInRange, WorkerFailed)
from hoamp.factoring import FactoringConfig, run_factoring
from hoamp.reporting import to_json_text
from hoamp.rng import SplitMix64
from hoamp.solver import ConstraintSystem, uniform_state

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


def _sub_range(rect, key: int) -> int:
    """The index of the KERNEL_BLOCK-slot sub-range, counted from the
    rectangle's first product, that holds `key`."""
    return (key - rect.n_lo * rect.m_lo) // KERNEL_BLOCK


def _sieve_all(rect) -> list:
    """Every block of the rectangle: _sieve over each of its windows."""
    return [block for window in ensemble._windows(rect)
            for block in ensemble._sieve(rect, *window)]


@pytest.mark.parametrize("rect,window,key_dtype", [
    (factoring_ranges(6557), KERNEL_BLOCK, np.int32),       # 3 one-sub-range windows
    ((50_000, 50_010, 49_990, 50_100), 1 << 20, np.int64),   # products past 2^31, 6 windows
])
def test_product_bins_across_windows(monkeypatch, rect, window, key_dtype):
    monkeypatch.setattr(ensemble, "_SIEVE_WINDOW", window)
    r = ensemble.Rectangle(*rect)
    assert len(ensemble._windows(r)) > 2
    blocks = _sieve_all(r)
    # every block is one nonempty sub-range, in order: the cuts conditioning makes
    subs = [_sub_range(r, int(k[0])) for k, _ in blocks]
    assert all(len(k) and _sub_range(r, int(k[-1])) == j for (k, _), j in zip(blocks, subs))
    assert subs == sorted(set(subs))
    keys, counts = (np.concatenate(parts) for parts in zip(*blocks))
    want_keys, want_counts = _brute_force_bins(*rect)
    assert keys.dtype == key_dtype and np.array_equal(keys, want_keys)
    assert counts.dtype == np.int32 and np.array_equal(counts, want_counts)


@pytest.mark.parametrize("rect,window", [
    (factoring_ranges(30_000), None),                  # the real window, then a partial one
    (factoring_ranges(30_000), KERNEL_BLOCK),          # windows of one sub-range
    (factoring_ranges(30_000), 3 * KERNEL_BLOCK),      # of three
    ((46_000, 46_300, 46_500, 46_800), None),          # products on both sides of 2^31
    ((46_000, 46_300, 46_500, 46_800), 3 * KERNEL_BLOCK),
])
def test_sub_range_gather_matches_brute_force(monkeypatch, rect, window):
    # the sieve's windows are whole sub-ranges, whatever their number;
    # the bins, and each block re-sieved from its first key to the end of its
    # sub-range as ProductStream.sample re-sieves it, must not depend on it
    if window is not None:
        monkeypatch.setattr(ensemble, "_SIEVE_WINDOW", window)
    r = ensemble.Rectangle(*rect)
    vmin = r.n_lo * r.m_lo
    blocks = _sieve_all(r)
    assert len(blocks) > 1
    keys, counts = (np.concatenate(parts) for parts in zip(*blocks))
    want_keys, want_counts = _brute_force_bins(*rect)
    assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)
    for k, c in blocks:
        end = vmin + (_sub_range(r, int(k[0])) + 1) * KERNEL_BLOCK
        (got_k, got_c), = ensemble._sieve(r, int(k[0]), end)
        assert got_k.dtype == k.dtype and np.array_equal(got_k, k)
        assert np.array_equal(got_c, c)


@pytest.mark.parametrize("N", [50_000, 205_193])
def test_every_block_is_one_nonempty_sub_range(monkeypatch, N):
    # a stored state's blocks and a pass's are the same: the bins of each
    # KERNEL_BLOCK-slot product range that holds any, counted from n_lo*m_lo
    monkeypatch.setenv("HOAMP_THREADS", "1")
    rect = trial_rectangle(N)
    keys = np.concatenate([k for k, _ in _sieve_all(rect)])
    blocks = ensemble._blocks(keys)
    subs = [_sub_range(rect, int(keys[lo])) for lo, _ in blocks]
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == len(keys)
    assert all(lo < hi and _sub_range(rect, int(keys[hi - 1])) == j
               for (lo, hi), j in zip(blocks, subs))
    assert subs == sorted(set(subs)) and len(blocks) > 2
    stream = ensemble.ProductStream(rect, PARAMS, N, [(0.9, 2.0)])
    assert stream.starts == [int(keys[lo]) for lo, _ in blocks]


_B = KERNEL_BLOCK


@pytest.mark.parametrize("keys,want", [
    # dense keys, one column: KERNEL_BLOCK-wide key ranges from the first
    # key, the empty one (the third) skipped
    (np.concatenate([np.arange(5, 5 + _B // 2), np.arange(5 + _B, 5 + _B + _B // 4),
                     np.arange(5 + 3 * _B, 5 + 4 * _B)]),
     [(0, _B // 2), (_B // 2, 3 * _B // 4), (3 * _B // 4, 7 * _B // 4)]),
    (np.arange(2 * _B + 1, dtype=np.int32), [(0, _B), (_B, 2 * _B), (2 * _B, 2 * _B + 1)]),
    (np.arange(_B + 1, dtype=np.int64).reshape(-1, 1) * 4,     # a quarter full
     [(0, _B // 4), (_B // 4, _B // 2), (_B // 2, 3 * _B // 4), (3 * _B // 4, _B),
      (_B, _B + 1)]),
    # one column under an eighth full, and wider keys: every KERNEL_BLOCK bins
    (np.array([5, 6, 5 + _B, 7 + 3 * _B]), [(0, 4)]),
    (np.array([[-(2**63)], [0], [2**63 - 1]]), [(0, 3)]),
    (np.arange(_B + 1, dtype=np.int64) * 9, [(0, _B), (_B, _B + 1)]),
    (np.zeros((_B + 1, 2), dtype=np.int64), [(0, _B), (_B, _B + 1)]),
    (np.zeros(0, dtype=np.int32), []),
])
def test_blocks_cut_dense_key_column_by_key_range(keys, want):
    assert ensemble._blocks(keys) == want


def test_sparse_one_constraint_state_keeps_bin_count_blocks():
    # x^4 + y^4 over x, y <= 299: 45,147 distinct values spread over 1.6e10,
    # one bin in about 350,000 keys.  Key ranges would make a block of about
    # one bin each; the state is one block of every bin, and the solve
    # conditions, totals and samples it as one
    system = ConstraintSystem.from_json({
        "variables": [{"name": "x", "bound": 299}, {"name": "y", "bound": 299}],
        "constraints": [{"expr": "x^4 + y^4", "relation": "<=", "bound": 10**10}]})
    state = uniform_state(system)
    assert state.keys.shape == (45_147, 1)
    assert ensemble._blocks(state.keys) == [(0, 45_147)]


def test_sieve_yields_no_more_than_one_kernel_block_of_offsets(monkeypatch):
    # no window-sized keys or counts array: neither in the streamed pass nor
    # in a draw's re-sieve.  N = 30,000 puts 0.54M bins in its first window.
    # The spy sees only the calling process, so the pass runs there
    monkeypatch.setenv("HOAMP_THREADS", "1")
    sieve, lengths = ensemble._sieve, []

    def spy(*args):
        for keys, cnt in sieve(*args):
            assert len(keys) == len(cnt)
            lengths.append(len(keys))
            yield keys, cnt

    monkeypatch.setattr(ensemble, "_sieve", spy)
    rect = ensemble.trial_rectangle(30_000)
    stream = ensemble.ProductStream(rect, PARAMS, 30_000, [(0.9, 2.0)])
    n_bins = sum(lengths)
    assert len(stream.starts) > 2
    assert n_bins == len(_brute_force_bins(*factoring_ranges(30_000))[0])
    stream.sample(1, SplitMix64(3))
    assert sum(lengths) > n_bins and max(lengths) <= KERNEL_BLOCK


def _spy_sieve_widths(monkeypatch, path):
    """Append the width of every window _sieve_window fills, in any process,
    to the file at `path`, one line each."""
    fill = ensemble._sieve_window

    def spy(rect, w0, slot):
        win = fill(rect, w0, slot)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d\n" % len(win))
        finally:
            os.close(fd)
        return win

    monkeypatch.setattr(ensemble, "_sieve_window", spy)
    return lambda: [int(w) for w in path.read_text().split()] if path.exists() else []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pass_sieves_every_product_slot_once(monkeypatch, tmp_path, workers):
    # the windows of a pass split the product range, so the widths the
    # calling process and its children fill add up to the range: no slot is
    # sieved twice, and there is no counting round
    monkeypatch.setattr(ensemble, "_worker_count", lambda: workers)
    widths = _spy_sieve_widths(monkeypatch, tmp_path / "widths")
    rect = trial_rectangle(50_000)
    ensemble.ProductStream(rect, PARAMS, 50_000, [(0.9, 2.0)])
    assert sum(widths()) == rect.n_hi * rect.m_hi - rect.n_lo * rect.m_lo + 1


def test_draw_sieves_at_most_one_sub_range(monkeypatch, tmp_path):
    # a draw re-sieves its block from the block's first key to the end of
    # its sub-range, never a whole window
    monkeypatch.setenv("HOAMP_THREADS", "1")
    rect = trial_rectangle(50_000)
    stream = ensemble.ProductStream(rect, PARAMS, 50_000, [(0.9, 2.0)])
    widths = _spy_sieve_widths(monkeypatch, tmp_path / "widths")
    for seed in range(8):
        stream.sample(1, SplitMix64(seed))
    assert len(widths()) == 8 and max(widths()) <= KERNEL_BLOCK


def test_streamed_pass_working_set(monkeypatch):
    # one pass at N = 205,193 (31M product slots, in windows of at most 2^20)
    # in one process holds the sieve's one 3 MiB window slot, the 4 MiB
    # kernel scratch and one block of products: a 7.6 MiB tracemalloc peak.
    # A second window slot, counted ahead, took it to 12.3 MiB, and
    # gathering a whole window's offsets and counts at once to 25.8 MiB;
    # the bound lies below both
    monkeypatch.setenv("HOAMP_THREADS", "1")
    rect = ensemble.trial_rectangle(205_193)
    tracemalloc.start()
    try:
        ensemble.ProductStream(rect, PARAMS, 205_193, [(0.9, 2.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


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


def _job(i):
    time.sleep(0.1 if i % 2 else 0.05)      # uneven items finish out of order
    return i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_in_processes_keeps_order(workers):
    # the calling process and workers - 1 forked children take the items off
    # one queue; each item runs once, the results come back in item order,
    # and every child is reaped (no_child_left_unreaped checks that)
    results = ensemble._in_processes(_job, list(range(2 * workers)), workers)
    assert [i for i, _ in results] == list(range(2 * workers))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids and len(pids) == workers


def test_in_processes_batches_a_long_queue(monkeypatch):
    # past _QUEUE_MAX items a queue entry is a run of consecutive items
    monkeypatch.setattr(ensemble, "_QUEUE_MAX", 4)
    assert ensemble._in_processes(lambda i: i * i, range(11), 2) == \
        [i * i for i in range(11)]


def test_without_fork_every_piece_runs_in_the_calling_process(monkeypatch):
    # a pass's pieces are its sieve windows, 4 at N = 50,000
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 2)
    rect = trial_rectangle(50_000)
    forked = ensemble.ProductStream(rect, PARAMS, 50_000, [(0.9, 2.0)])
    monkeypatch.delattr(os, "fork")
    pids = []
    window_blocks = ensemble.ProductStream._window_blocks

    def spy(self, *args, **kwargs):
        pids.append(os.getpid())
        return window_blocks(self, *args, **kwargs)

    monkeypatch.setattr(ensemble.ProductStream, "_window_blocks", spy)
    serial = ensemble.ProductStream(rect, PARAMS, 50_000, [(0.9, 2.0)])
    assert pids == [os.getpid()] * len(ensemble._windows(rect)) and len(pids) > 2
    assert (serial.sums, serial.starts, serial.hit) == (forked.sums, forked.starts, forked.hit)


@pytest.mark.parametrize("affinity", [True, False])
def test_worker_count_is_capped_at_the_usable_cpus(monkeypatch, affinity):
    # HOAMP_THREADS=64 on 2 usable CPUs makes two processes for the pass's
    # one round, so one fork; counted on a wrapped os.fork, never by
    # starting 64 processes
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for raw, want in (("64", 2), ("2", 2), ("1", 1), ("0", 2), ("", 2), ("x", 2)):
        monkeypatch.setenv("HOAMP_THREADS", raw)
        assert ensemble._worker_count() == want
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setenv("HOAMP_THREADS", "64")
    stream = ensemble.ProductStream(trial_rectangle(50_000), PARAMS, 50_000, [(0.9, 2.0)])
    assert len(stream.starts) == 57 and len(forks) == 1


@pytest.mark.parametrize("N,window", [
    (50_000, None),
    (50_000, 3 * KERNEL_BLOCK),             # windows of 3 sub-ranges
    (205_193, None),
])
def test_forked_pass_equals_serial_pass(monkeypatch, N, window):
    # 1, 2 and 3 worker processes cut the same blocks, so every block sum,
    # first key and the on-target bin come out bit for bit as from one
    if window is not None:
        monkeypatch.setattr(ensemble, "_SIEVE_WINDOW", window)
    width = ensemble._SIEVE_WINDOW
    rect, steps = trial_rectangle(N), [(0.9, 2.0), (4.1, 1.5)]
    vmin, end = rect.n_lo * rect.m_lo, rect.n_hi * rect.m_hi + 1
    in_processes, pieces, runs = ensemble._in_processes, [], []

    def spy(fn, items, workers):
        pieces.append(list(items))
        return in_processes(fn, items, workers)

    monkeypatch.setattr(ensemble, "_in_processes", spy)
    for workers in (1, 2, 3):
        monkeypatch.setattr(ensemble, "_worker_count", lambda: workers)
        stream = ensemble.ProductStream(rect, PARAMS, N, steps)
        runs.append((stream.sums, stream.starts, stream.hit))
    # the pieces are the sieve windows, one list at every worker count: they
    # tile the product range on window edges, each a whole window but the last
    windows = ensemble._windows(rect)
    assert pieces == [windows] * 3 and len(windows) > 3
    bounds = [start for start, _ in windows] + [end]
    assert [stop for _, stop in windows] == bounds[1:] and bounds[0] == vmin
    assert all(start == vmin + j * width for j, start in enumerate(bounds[:-1]))
    assert 0 < end - bounds[-2] <= width
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert all(isinstance(s, float) for sums in runs[0][0] for s in sums)


def test_child_failure_raises_and_reaps_every_child(monkeypatch, tmp_path, capsys):
    # a child that raises, or ends without a result, makes run_factoring
    # raise WorkerFailed (exit 2 from the CLI); an interrupt in the calling
    # process's own window kills the children; every child is reaped
    monkeypatch.setattr(ensemble, "_worker_count", lambda: 3)
    parent, index_of = os.getpid(), ensemble._index_of
    config = FactoringConfig(N=50_000, seed=3, L_max=2)

    def failing(how):
        in_child = how != "interrupt"       # the interrupt hits the calling process

        def index(keys, v):
            if (os.getpid() != parent) == in_child:
                if how == "raise":
                    raise ZeroDivisionError("in a worker")
                if how == "exit":
                    os._exit(3)
                raise KeyboardInterrupt
            return index_of(keys, v)
        return index

    monkeypatch.setattr(ensemble, "_index_of", failing("raise"))
    with pytest.raises(WorkerFailed, match="ZeroDivisionError: in a worker") as info:
        run_factoring(config)
    assert any("ZeroDivisionError" in note for note in info.value.__notes__)
    assert cli.main(["factor", "--n", "50000", "--l-max", "2", "--out-dir", str(tmp_path)]) == 2
    assert "runtime error: worker process" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(ensemble, "_index_of", failing("exit"))
    with pytest.raises(WorkerFailed, match="ended without sending its result"):
        run_factoring(config)
    monkeypatch.setattr(ensemble, "_index_of", failing("interrupt"))
    with pytest.raises(KeyboardInterrupt):
        run_factoring(config)


@pytest.mark.parametrize("path", ["stored", "streamed"])
def test_conditioning_reuses_one_scratch_per_worker(monkeypatch, path):
    # one KernelScratch per process: a stored conditioning makes one for all
    # its blocks, and a stream one for its own windows and its draw (a forked
    # worker uses its copy of it), whatever the worker count
    made = []

    class CountedScratch(KernelScratch):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(ensemble, "KernelScratch", CountedScratch)
    st = init_uniform_factoring(50_000)
    assert len(st.keys) > 2 * KERNEL_BLOCK          # 57 blocks
    outs = []
    for workers in (1, 2):
        monkeypatch.setattr(ensemble, "_worker_count", lambda: workers)
        made.clear()
        if path == "stored":
            out = conditional_update(st, PARAMS, MarkerAmplitude(2.0), 50_000, 0.9)
            outs.append(out.post_state.mass.tobytes())
        else:
            report = run_factoring(FactoringConfig(N=50_000, seed=3, L_max=3))
            outs.append(to_json_text(report))
        assert len(made) == 1
        # no buffer outgrows one block
        assert max(len(b) for b in made[0]._bufs.values()) <= KERNEL_BLOCK
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
