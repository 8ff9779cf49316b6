"""Constraint solver: accepted sets, the max multiplier, factoring embedding."""

import dataclasses
import io
import math

import numpy as np
import pytest

from hoamp import solver
from hoamp.constraints import ConstraintSystem, feasible_set
from hoamp.dynamics import (MarkerAmplitude, OscillatorParams, epsilon_overlap,
                            gather_phasors, phase_delta, phase_table, target_phasors,
                            value_digits)
from hoamp import ensemble
from hoamp.ensemble import StepRecord, init_uniform_factoring, member_masses
from hoamp.errors import DomainTooLarge, EmptyRange, InfeasibleSystem
from hoamp.factoring import FactoringConfig, run_factoring
from hoamp.reporting import write_iteration_csv
from hoamp.search import (BlackBox, SearchConfig, apply_black_box, initial_search_state,
                          run_search, search_iteration)
from hoamp.solver import (AcceptedSet, build_accepted_sets, constraint_multipliers,
                          plan_steps, run_solver, solver_iteration, uniform_state)

from conftest import factoring_rectangle


def make_system(doc):
    return ConstraintSystem.from_json(doc)


def make_plan(system, state):
    return plan_steps(state.keys, build_accepted_sets(system, state))


EQ_FACTORING_35 = {
    "variables": [{"name": "m1", "bound": 6}, {"name": "m2", "bound": 12}],
    "constraints": [{"expr": "m1*m2", "relation": "=", "bound": 35}],
}
INEQ_SMALL = {
    "variables": [{"name": "x", "bound": 3}, {"name": "y", "bound": 3}],
    "constraints": [
        {"expr": "x + y", "relation": "<=", "bound": 3},
        {"expr": "x*y", "relation": ">=", "bound": 2},
    ],
}
THREE_CONSTRAINTS = {
    "variables": [{"name": "x", "bound": 7}, {"name": "y", "bound": 7}],
    "constraints": [
        {"expr": "x + y", "relation": "<=", "bound": 6},
        {"expr": "x*y", "relation": ">=", "bound": 5},
        {"expr": "x^2 + y", "relation": ">=", "bound": 7},
    ],
}
EQ_AND_SUM = {
    "variables": [{"name": "x", "bound": 12}, {"name": "y", "bound": 12}],
    "constraints": [
        {"expr": "x*y", "relation": "=", "bound": 12},
        {"expr": "x + y", "relation": "<=", "bound": 8},
    ],
}
GRID_40 = {
    "variables": [{"name": "x", "bound": 40}, {"name": "y", "bound": 40}],
    "constraints": [
        {"expr": "x + y", "relation": "<=", "bound": 40},
        {"expr": "x*y", "relation": ">=", "bound": 200},
    ],
}


def test_search_and_solve_records_are_one_step_record():
    solve = run_solver(make_system(INEQ_SMALL), seed=1, L_max=3, stop_mass=1.0)
    search = run_search(SearchConfig(L_max=2, stop_mass=1.0),
                        BlackBox.from_solution_indices(64, [7]))
    for report in (solve, search):
        assert report.records and all(type(r) is StepRecord for r in report.records)
    assert [f.name for f in dataclasses.fields(StepRecord)] == \
        ["l", "t_l", "alpha_mag", "pr_E", "C_l", "solution_mass"]
    headers = []
    for report in (solve, search):
        buf = io.StringIO()
        write_iteration_csv(buf, report)
        headers.append(buf.getvalue().splitlines()[1])
    assert headers == ["l,t_l,alpha_mag,pr_E,C_l,solution_mass"] * 2


def test_solve_alpha_mag_follows_the_schedule():
    # every marker takes |alpha| per step from the one schedule, the last
    # entry repeating once it runs out
    sched = (1.5, 2.0, 2.5)
    system = make_system(THREE_CONSTRAINTS)
    report = run_solver(system, alpha_schedule=sched, seed=3, L_max=6, stop_mass=1.0)
    assert [r.alpha_mag for r in report.records] == [1.5, 2.0, 2.5, 2.5, 2.5, 2.5]
    assert report.config["alpha_schedule"] == list(sched)
    # step by step, the same as conditioning at that |alpha| alone
    state = uniform_state(system)
    plan = make_plan(system, state)
    for rec in report.records:
        state, ref = solver_iteration(state, plan, (rec.alpha_mag,), 1, rec.t_l)
        assert (ref.pr_E, ref.C_l, ref.solution_mass) == (rec.pr_E, rec.C_l,
                                                          rec.solution_mass)


def test_solver_step_conditions_the_state_it_is_given():
    # the step scales the state in place: solved bins keep their masses
    # exactly, violators lose mass
    system = make_system(INEQ_SMALL)
    state = uniform_state(system)
    plan = make_plan(system, state)
    before = state.mass.copy()
    post, rec = solver_iteration(state, plan, (2.0,), 1, 1.3)
    assert post is state
    assert np.array_equal(state.mass[plan.solved], before[plan.solved])
    assert (state.mass[~plan.solved] < before[~plan.solved]).all()
    assert state.total == rec.C_l < 1.0


def test_run_solver_rejects_a_decreasing_schedule():
    with pytest.raises(ValueError, match="non-decreasing"):
        run_solver(make_system(INEQ_SMALL), alpha_schedule=(2.0, 1.0))


def test_run_solver_echoes_alpha_schedule():
    report = run_solver(make_system(INEQ_SMALL), seed=1, L_max=2)
    assert report.config["alpha_schedule"] == [2.0]
    assert "bank" not in report.config
    report = run_solver(make_system(INEQ_SMALL), alpha_schedule=3, seed=1, L_max=2)
    assert report.config["alpha_schedule"] == [3.0]


def accepted_sets(doc):
    system = make_system(doc)
    return build_accepted_sets(system, uniform_state(system))


def test_accepted_sets_enumerated():
    acc = accepted_sets(INEQ_SMALL)
    assert list(acc[0].values) == [0, 1, 2, 3]          # x+y <= 3, achievable
    assert list(acc[1].values) == [2, 3, 4, 6, 9]       # x*y >= 2 over [0,3]^2
    assert acc[0].values.dtype == np.int64
    assert acc[0].contains(np.array([3, 4])).tolist() == [True, False]


def test_accepted_sets_read_from_the_domain():
    # a custom domain's sets hold what f_k takes there, not over the box
    system = make_system(INEQ_SMALL)
    domain = np.array([[0, 3], [1, 2], [3, 3]])
    acc = build_accepted_sets(system, uniform_state(system, domain))
    assert list(acc[0].values) == [3]
    assert list(acc[1].values) == [2, 9]


def test_accepted_sets_infeasible():
    with pytest.raises(InfeasibleSystem):
        accepted_sets({
            "variables": [{"name": "x", "bound": 3}],
            "constraints": [{"expr": "x^2", "relation": "=", "bound": 5}],
        })
    with pytest.raises(InfeasibleSystem):
        accepted_sets({
            "variables": [{"name": "x", "bound": 30}],
            "constraints": [{"expr": "x", "relation": ">=", "bound": 1e9}],
        })


def column_multipliers(vals, acc, alpha_mag, t):
    # one column as a solver step sees it: its cut from plan_steps and the
    # step's phase table for the plan's bound
    plan = plan_steps(vals[:, None], [acc])
    return constraint_multipliers(vals, acc, alpha_mag, t, plan.cuts[0],
                                  phase_table(OscillatorParams(), t, plan.bound))


def test_constraint_multipliers_satisfying_exactly_one():
    acc = accepted_sets(INEQ_SMALL)
    vals = np.array([0, 1, 2, 3, 4, 6], dtype=np.int64)    # x+y values
    mult, ok = column_multipliers(vals, acc[0], 2.0, 1.234)
    assert ok.tolist() == [True, True, True, True, False, False]
    assert all(mult[i] == 1.0 for i in range(4))            # exact
    assert all(mult[i] < 1.0 for i in (4, 5))


def test_constraint_multipliers_int64_scale_match_scalar():
    # values past 32 bits: each violator's multiplier is the max over the
    # accepted values of the scalar |eps(Delta(x, v))|^2
    acc = AcceptedSet(relation="<=", bound=0.0,
                      values=np.array([-3_000_000_000, -1, 0, 7, 4_999_999_999,
                                       5_000_000_000], dtype=np.int64))
    params = OscillatorParams()
    vals = np.array([0, 5_000_000_000, 5_000_000_001, 5_000_008_193, 9_876_543_210_123,
                     -3_000_000_001, -3_000_000_000 - (1 << 40), 7, 6_000_000_000],
                    dtype=np.int64)
    for t in (0.3, 2.71, 6.1):
        mult, ok = column_multipliers(vals, acc, 1.7, t)
        assert ok.tolist() == [True, True, False, False, False,
                               False, False, True, False]
        for v, m, inside in zip(vals, mult, ok):
            if inside:
                assert m == 1.0
                continue
            ref = max(abs(epsilon_overlap(MarkerAmplitude(1.7),
                                          phase_delta(params, int(x), int(v), t))) ** 2
                      for x in acc.values)
            assert abs(m - ref) < 1e-12
            assert 0.0 < m < 1.0


def test_max_mode_exact_past_a_million_tuples(monkeypatch):
    # 1,100,001 one-tuple bins against the accepted values 0..10: each
    # multiplier is the max over all eleven; at t = 2.71 that is rarely the
    # one at the nearest accepted integer, 10
    system = make_system({
        "variables": [{"name": "x", "bound": 1_100_000}],
        "constraints": [{"expr": "x", "relation": "<=", "bound": 10}],
    })
    seen = []
    apply = ensemble.apply_entry_multipliers

    def spy(state, joint, **kw):
        seen.append(joint.copy())
        return apply(state, joint, **kw)

    monkeypatch.setattr(ensemble, "apply_entry_multipliers", spy)
    t, alpha = 2.71, 2.0
    state = uniform_state(system)
    v = state.keys[:, 0].astype(np.int64)
    solver_iteration(state, make_plan(system, state), (alpha,), 1, t)
    (mult,) = seen
    assert np.all(mult[v <= 10] == 1.0)
    # every violator against the pairwise max over the eleven accepted values
    params = OscillatorParams()
    bad = v[v > 10]
    table = phase_table(params, t, int(bad.max()))
    p = gather_phasors(table, value_digits(table, bad))
    cos = np.max([(p * q).real for q in target_phasors(params, t, np.arange(11))], axis=0)
    assert np.abs(mult[v > 10] - solver.eps_squared_batch(alpha, cos)).max() < 1e-12
    # and a stride of them against the scalar phase_delta
    for i in np.flatnonzero(v > 10)[::1500]:
        ref = max(abs(epsilon_overlap(MarkerAmplitude(alpha),
                                      phase_delta(params, x, int(v[i]), t))) ** 2
                  for x in range(11))
        assert abs(mult[i] - ref) < 1e-12


@pytest.mark.parametrize("doc", [INEQ_SMALL, THREE_CONSTRAINTS, EQ_AND_SUM,
                                 EQ_FACTORING_35, GRID_40])
def test_max_mode_matches_pairwise_reference(doc, monkeypatch):
    # the outer-product max against a violators x accepted reference from
    # the scalar phase_delta, within 1e-15 on cos Delta
    seen = []
    eps_squared = solver.eps_squared_batch

    def spy(alpha_mag, cos, out=None):
        seen.append(np.array(cos))
        return eps_squared(alpha_mag, cos, out)

    monkeypatch.setattr(solver, "eps_squared_batch", spy)
    system = make_system(doc)
    state = uniform_state(system)
    params = OscillatorParams()
    # the plan and tables a solver step builds: one bound for every column
    plan = plan_steps(state.keys, build_accepted_sets(system, state))
    for k, (acc, cut) in enumerate(zip(plan.accepted, plan.cuts)):
        vals = state.keys[:, k].astype(np.int64)
        for t in (0.3, 2.71, 6.1):
            mult, ok = constraint_multipliers(vals, acc, 2.0, t, cut,
                                              phase_table(params, t, plan.bound))
            bad = vals[~ok]
            if not len(bad):
                continue
            (cos,) = seen
            seen.clear()
            # K = 1: the angle depends on x - v only
            diffs = acc.values[None, :] - bad[:, None]
            lo = int(diffs.min())
            ref = np.array([math.cos(phase_delta(params, d, 0, t).angle)
                            for d in range(lo, int(diffs.max()) + 1)])
            assert np.abs(cos - ref[diffs - lo].max(axis=1)).max() <= 1e-15
            assert np.array_equal(mult[~ok], eps_squared(2.0, cos))


def test_run_solver_cuts_once_and_builds_one_table_per_step(monkeypatch):
    # only t changes between steps: one phase table per step serves both
    # constraints, the satisfied masks and the table digits are cut before
    # step 1 (against one table at t = 0), and only x*y = 12, the
    # constraint with a single accepted value, reduces its target phasor
    # exactly
    system = make_system(EQ_AND_SUM)       # x*y = 12 (one value), x+y <= 8 (nine)
    steps, seen = [], {"phase_table": [], "value_digits": [], "target_phasors": [],
                       "contains": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append((len(steps), args))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("phase_table", "value_digits", "target_phasors"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    monkeypatch.setattr(AcceptedSet, "contains", counted("contains", AcceptedSet.contains))
    iteration = solver.solver_iteration

    def step(*args, **kwargs):
        steps.append(args[3])
        return iteration(*args, **kwargs)

    monkeypatch.setattr(solver, "solver_iteration", step)
    L = 5
    report = run_solver(system, seed=3, L_max=L, stop_mass=1.0)
    assert steps == [1, 2, 3, 4, 5] and len(report.records) == L
    assert [l for l, _ in seen["phase_table"]] == [0, 1, 2, 3, 4, 5]
    assert seen["phase_table"][0][1][1] == 0.0
    # both constraints' violators, and the nine accepted values of x+y <= 8
    assert [l for l, _ in seen["value_digits"]] == [0, 0, 0]
    assert [l for l, _ in seen["contains"]] == [0, 0]
    assert [l for l, _ in seen["target_phasors"]] == [1, 2, 3, 4, 5]
    assert all(list(args[2]) == [12] for _, args in seen["target_phasors"])


@pytest.mark.parametrize("domain", [None, np.array([[3, 4], [1, 2], [2, 6], [4, 3], [1, 2],
                                                    [0, 0], [6, 2], [12, 1], [5, 0]]),
                                    "search"])
def test_member_masses_one_gather_equals_the_per_bin_loop(domain):
    # the solver's members come from one gather; the list is the per-bin
    # loop's, over the box, over a custom domain with a repeated tuple, and
    # over both bins of a search state
    if isinstance(domain, str):
        box = BlackBox.from_solution_indices(200, [150, 3, 77])
        state = apply_black_box(initial_search_state(box), box)
        state, _ = search_iteration(state, SearchConfig(), 1)
        size, shares, bins = 200, 2, np.array([1, 0])
    else:
        system = make_system(EQ_AND_SUM)
        state = uniform_state(system, domain)
        plan = make_plan(system, state)
        for l, t in enumerate((0.4, 1.3, 2.9), start=1):
            state, _ = solver_iteration(state, plan, (2.0,), l, t)
        size, shares = (13 * 13 if domain is None else len(domain)), 3
        bins = np.flatnonzero(state.keys[:, 1] <= 8)[::-1]
    assert len(np.unique(state.mass / state.counts)) >= shares

    def per_bin(bins):
        out = []
        for i in bins:
            share = float(state.mass[i]) / state.total / float(state.counts[i])
            out.extend((tuple(m), share) for m in state.members(i).tolist())
        return sorted(out)

    everything = member_masses(state)
    assert everything == per_bin(range(len(state.counts)))
    assert len(everything) == size
    assert member_masses(state, bins) == per_bin(bins)
    assert member_masses(state, bins[:0]) == []


def test_best_cos_columns_are_the_factoring_product():
    # with one accepted value the outer product is factoring's Re(q * P_v),
    # bit for bit, and every column of a wider one is too
    params = OscillatorParams()
    vals = np.arange(-3000, 9000, 7, dtype=np.int64)
    for t in (0.3, 2.71, 6.1):
        table = phase_table(params, t, 9000)
        p = gather_phasors(table, value_digits(table, vals))
        q = target_phasors(params, t, [35, 8191, -77, 4_000])
        assert np.array_equal(solver._best_cos(p, q[:1]), (p * q[0]).real)
        full = np.maximum.reduce([(p * x).real for x in q])
        assert np.array_equal(solver._best_cos(p, q), full)


def test_uniform_state_box():
    # bins are the distinct rows (x+y, x*y) over the 16 box tuples
    st = uniform_state(make_system(INEQ_SMALL))
    assert st.n_entries == 16
    assert st.total_mass() == pytest.approx(1.0, abs=1e-14)
    x, y = np.divmod(np.arange(16), 4)
    rows = np.stack([x + y, x * y], axis=1)
    assert np.array_equal(st.keys, np.unique(rows, axis=0))
    pairs = member_masses(st)
    assert pairs[0][0] == (0, 0) and pairs[-1][0] == (3, 3) and len(pairs) == 16
    for i, row in enumerate(st.keys.tolist()):
        assert all([a + b, a * b] == row for a, b in st.members(i).tolist())
    assert st.members(int(np.flatnonzero((st.keys == [3, 2]).all(axis=1))[0])).tolist() \
        == [[1, 2], [2, 1]]
    with pytest.raises(DomainTooLarge):
        uniform_state(make_system({
            "variables": [{"name": "x", "bound": 50_000_000}],
            "constraints": [{"expr": "x", "relation": "=", "bound": 3}],
        }))


def test_empty_domain_raises_empty_range():
    system = make_system(INEQ_SMALL)
    with pytest.raises(EmptyRange):
        run_solver(system, domain=np.empty((0, 2), dtype=np.int64))


def test_equality_mode_matches_factoring_bit_for_bit():
    seed = 7
    frep = run_factoring(FactoringConfig(N=35, seed=seed, L_max=6,
                                         stop_fidelity=1.0))
    srep = run_solver(make_system(EQ_FACTORING_35), seed=seed, L_max=6,
                      stop_mass=1.0, domain=factoring_rectangle(35))
    assert len(frep.records) == len(srep.records)
    for fr, sr in zip(frep.records, srep.records):
        assert fr.t_l == sr.t_l
        assert fr.pr_E == sr.pr_E                  # bitwise, same code path
        assert fr.C_l == sr.C_l


def test_equality_mode_post_state_identical():
    from hoamp.dynamics import MarkerAmplitude
    from hoamp.ensemble import conditional_update
    # over the factoring rectangle the solver's bins are factoring's bins
    system = make_system(EQ_FACTORING_35)
    st_f = init_uniform_factoring(35)
    st_s = uniform_state(system, factoring_rectangle(35))
    for a in ("keys", "counts", "mass"):
        assert getattr(st_s, a).tobytes() == getattr(st_f, a).tobytes()
    out_f = conditional_update(st_f, OscillatorParams(), MarkerAmplitude(2.0),
                               35, 1.37)
    post_s, rec = solver_iteration(st_s, make_plan(system, st_s), (2.0,), 1, 1.37)
    assert rec.pr_E == out_f.probability
    assert post_s.mass.tobytes() == out_f.post_state.mass.tobytes()


def test_inequality_solutions_match_feasible_set():
    system = make_system(INEQ_SMALL)
    report = run_solver(system, seed=1, L_max=30)
    assert {t for t, _ in report.solutions} == feasible_set(system)
    assert report.solution_count == 2
    assert report.records[-1].solution_mass > 0.99
    assert report.sampled_tuple in feasible_set(system)


def test_three_constraint_system_converges():
    system = make_system(THREE_CONSTRAINTS)
    report = run_solver(system, alpha_schedule=(3.0,), seed=3, L_max=120, stop_mass=0.999)
    assert {t for t, _ in report.solutions} == feasible_set(system)
    assert report.records[-1].solution_mass >= 0.999
    masses = [r.solution_mass for r in report.records]
    assert masses[-1] > masses[0]


def test_equality_and_sum_system_converges():
    system = make_system(EQ_AND_SUM)
    report = run_solver(system, seed=3, L_max=40, stop_mass=0.999)
    assert {t for t, _ in report.solutions} == feasible_set(system)
    assert report.records[-1].solution_mass >= 0.999


def test_solver_reports_diagnostics():
    report = run_solver(make_system(INEQ_SMALL), seed=1, L_max=30)
    assert report.estimated_iterations >= 1
    assert report.config["mode"] == "max"
    assert report.config["system"]["variables"][0]["name"] == "x"


def test_pr_lambda_identity():
    report = run_solver(make_system(INEQ_SMALL), seed=5, L_max=10, stop_mass=1.0)
    c_prev = 1.0
    for rec in report.records:
        assert rec.pr_E == pytest.approx(rec.C_l / c_prev, rel=1e-12)
        c_prev = rec.C_l
