"""Unstructured search: parity encoding, per-round suppression, recovery."""

import math
import re

import numpy as np
import pytest

from hoamp.ensemble import member_masses
from hoamp import search
from hoamp.errors import DomainError, DomainTooLarge, EmptyRange, NoSolutionFound
from hoamp.search import (T_S, BlackBox, SearchConfig, apply_black_box,
                          initial_search_state, required_iterations, run_search,
                          search_iteration)


def test_black_box_from_indices():
    box = BlackBox.from_solution_indices(8, [5])
    assert box.predicate(5) and not box.predicate(4)
    assert box.h(5) == 0 and box.h(4) == 1        # solutions get even parity
    with pytest.raises(ValueError):
        BlackBox.from_solution_indices(8, [9])
    with pytest.raises(EmptyRange):
        BlackBox(domain_size=0, predicate=lambda n: True)
    # items are int64: a domain of 2^63 items or more is refused when built
    for d in (2**63, 2**64):
        with pytest.raises(DomainTooLarge):
            BlackBox.from_solution_indices(d, [5])
        with pytest.raises(DomainTooLarge):
            BlackBox(domain_size=d, predicate=lambda n: True)
    assert BlackBox.from_solution_indices(2**63 - 1, [5]).marked.tolist() == [5]


@pytest.mark.parametrize("marked,message", [
    ([5], "fail the predicate: [5]"),
    ([3, 3], "ascending, unique"), ([3, 1], "ascending, unique"),
    ([-1, 3], "inside [0, 8)"), ([3, 8], "inside [0, 8)"),
])
def test_black_box_marked_set_checked_when_built(marked, message):
    # a marked set the predicate disagrees with is refused by the constructor,
    # before any step runs
    with pytest.raises(ValueError, match=re.escape(message)):
        BlackBox(domain_size=8, predicate=lambda n: n == 3,
                 marked=np.array(marked, dtype=np.int64))
    BlackBox(domain_size=8, predicate=lambda n: n == 3, marked=np.array([3]))


def test_h_batch_matches_h():
    items = np.arange(16)
    boxes = (BlackBox.from_solution_indices(16, [0, 9, 15]),
             BlackBox(domain_size=16, predicate=lambda n: n % 5 == 0))
    for box in boxes:
        assert box.h_batch(items).tolist() == [box.h(n) for n in range(16)]


def test_search_config_validation():
    assert T_S == math.pi                         # pi/g_tilde, with g_tilde = 1
    with pytest.raises(ValueError):
        SearchConfig(alpha_schedule=(2.0, 1.0))


def test_initial_state_uniform():
    box = BlackBox.from_solution_indices(8, [5])
    st = initial_search_state(box)
    assert st.n_entries == 8
    assert st.total_mass() == pytest.approx(1.0, abs=1e-14)
    assert st.keys.tolist() == [0]                 # every item in one bin, m0 = 0
    assert st.members(0)[:, 0].tolist() == list(range(8))


def test_apply_black_box_writes_parity():
    # two parity bins: even h(n) (the solutions) and odd, mass 1/8 per item
    box = BlackBox.from_solution_indices(8, [3, 5])
    st = apply_black_box(initial_search_state(box), box)
    assert st.keys.tolist() == [0, 1] and st.counts.tolist() == [2, 6]
    assert st.members(0)[:, 0].tolist() == [3, 5]
    assert st.members(1)[:, 0].tolist() == [0, 1, 2, 4, 6, 7]
    assert st.mass.tolist() == [2 * (1 / 8), 6 * (1 / 8)]


def test_black_box_pass_spans_chunks(monkeypatch):
    # a domain over several chunks of the marking pass, the last partial;
    # custom boxes still answer per item through h
    from hoamp import search
    monkeypatch.setattr(search, "_MARK_CHUNK", 64)
    marked = [0, 63, 64, 65, 200, 299]
    box = BlackBox.from_solution_indices(300, marked)
    custom = BlackBox(domain_size=300, predicate=lambda n: n in marked)
    for b in (box, custom):
        st = apply_black_box(initial_search_state(b), b)
        assert len(st.keys) == 2 and st.counts.tolist() == [6, 294]
        assert st.members(0)[:, 0].tolist() == marked


@pytest.mark.parametrize("d, marked, chunk", [
    (300, [0, 63, 64, 65, 127, 128, 200, 299], 64),   # five chunks, the last partial
    (256, [5, 64, 255], 64),                           # four full chunks
    (100, [], 64),                                     # nothing marked
    (1, [0], 64),                                      # one item, marked
    (50, [0, 49], 1 << 20),                            # marks at 0 and d - 1
])
def test_index_box_state_equals_predicate_box_state(d, marked, chunk, monkeypatch):
    # the state an index-built box takes from its marked set equals the one
    # the chunked pass of h builds for the same predicate
    from hoamp import search
    monkeypatch.setattr(search, "_MARK_CHUNK", chunk)
    box = BlackBox.from_solution_indices(d, marked)
    fast = apply_black_box(initial_search_state(box), box)
    pred = BlackBox(domain_size=d, predicate=lambda n: n in marked)
    slow = apply_black_box(initial_search_state(pred), pred)
    assert fast.keys.tolist() == slow.keys.tolist() == [0, 1]
    assert fast.counts.tolist() == slow.counts.tolist() == [len(marked), d - len(marked)]
    assert fast.mass.tolist() == slow.mass.tolist() and fast.total == slow.total
    for i in (0, 1):
        assert np.array_equal(fast.members(i), slow.members(i))
    assert fast.members(0)[:, 0].tolist() == marked


def test_index_box_never_calls_the_oracle(monkeypatch):
    # a box built from solution indices holds its marked set: neither the
    # state nor the run evaluates h on any item
    def refuse(*_):
        raise AssertionError("oracle called")
    monkeypatch.setattr(BlackBox, "h", refuse)
    monkeypatch.setattr(BlackBox, "h_batch", refuse)
    box = BlackBox.from_solution_indices(3 << 20, [0, 7, (3 << 20) - 1])
    st = apply_black_box(initial_search_state(box), box)
    assert st.counts.tolist() == [3, (3 << 20) - 3]
    report = run_search(SearchConfig(L_max=3), box)
    assert [n for n, _ in report.solutions] == [0, 7, (3 << 20) - 1]
    assert report.oracle_calls == 3 << 20


def test_one_in_eight_oracle_values():
    # frozen by an independent dense computation
    box = BlackBox.from_solution_indices(8, [5])
    st = apply_black_box(initial_search_state(box), box)
    config = SearchConfig()
    _, rec = search_iteration(st, config, 1)
    assert rec.pr_E == pytest.approx(0.1250000984682779, rel=1e-12)
    assert rec.solution_mass == pytest.approx(0.9999992122543974, rel=1e-12)


def test_one_in_1024_two_rounds():
    box = BlackBox.from_solution_indices(1024, [123])
    report = run_search(SearchConfig(L_max=2, stop_mass=1.0), box)
    r1, r2 = report.records
    assert 1.0 - r1.solution_mass == pytest.approx(1.1511023184684888e-4, rel=1e-10)
    assert 1.0 - r2.solution_mass <= 1e-10
    assert [n for n, _ in report.solutions] == [123]


def test_search_step_conditions_the_state_it_is_given():
    box = BlackBox.from_solution_indices(8, [5])
    st = apply_black_box(initial_search_state(box), box)
    before = st.mass.copy()
    post, rec = search_iteration(st, SearchConfig(), 1)
    assert post is st
    assert st.mass[0] == before[0] and st.mass[1] < before[1]
    assert st.total == rec.C_l < 1.0


def test_suppression_factor_is_symbolic():
    # each round multiplies non-solution amplitudes by exactly exp(-2 alpha^2),
    # so the one-round mass ratio non-solution/solution is exp(-4 alpha^2)/1
    box = BlackBox.from_solution_indices(4, [1])
    st = apply_black_box(initial_search_state(box), box)
    post, _ = search_iteration(st, SearchConfig(alpha_schedule=(1.5,)), 1)
    masses = {n: m for (n,), m in member_masses(post)}
    ratio = masses[0] / masses[1]
    assert ratio == pytest.approx(math.exp(-4 * 1.5 * 1.5), rel=1e-14)


def test_multiple_solutions_recovered_in_order():
    box = BlackBox.from_solution_indices(64, [42, 7, 19])
    report = run_search(SearchConfig(L_max=3), box)
    assert [n for n, _ in report.solutions] == [7, 19, 42]
    assert report.oracle_calls == 64
    # equal share of the solution mass per marked item
    ms = [m for _, m in report.solutions]
    assert ms[0] == pytest.approx(ms[1], rel=1e-12)
    assert sum(ms) >= 0.999999


def test_no_solutions_raises(monkeypatch):
    # a box that marks nothing is refused before the first step
    def no_step(*args):
        raise AssertionError("stepped")
    monkeypatch.setattr(search, "search_iteration", no_step)
    for box in (BlackBox(domain_size=16, predicate=lambda n: False),
                BlackBox.from_solution_indices(16, [])):
        with pytest.raises(NoSolutionFound, match="marks no item"):
            run_search(SearchConfig(L_max=3), box)


def test_run_search_stops_early():
    box = BlackBox.from_solution_indices(256, [99])
    report = run_search(SearchConfig(L_max=20, stop_mass=0.999), box)
    assert len(report.records) <= 2


def test_required_iterations():
    assert required_iterations(1024, 2.0, 1e-10) == 2
    # residual after L rounds is (D-1)/D * exp(-4 a^2 L): one round suffices
    # for 1e-3 at D=8, alpha=2
    assert required_iterations(8, 2.0, 1e-3) == 1
    with pytest.raises(DomainError):
        required_iterations(8, 0.0, 1e-3)
    with pytest.raises(EmptyRange):
        required_iterations(0, 2.0, 1e-3)
