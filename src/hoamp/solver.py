"""Generalized amplitude amplification under B integer constraints.

A register of A oscillators holds candidate tuples; each constraint f_k gets
its own marker oscillator rotating at f_k(tuple) (a marker's own frequency
cancels in every phase difference, so it is taken as 0).  Conditioning
compares every tuple's marker against the markers of the accepted values of
f_k (those satisfying the relation), so tuples that satisfy a constraint keep
their mass exactly while violators shrink.  One |alpha| schedule drives every
marker, and the iterations run through search's loop, ensemble.amplify.

The product of coherent projectors over all accepted values, taken literally,
is not a valid measurement element, so the per-constraint multiplier is the
max over accepted x of |eps(Delta(x, v))|^2: it equals 1 exactly on
satisfying tuples and never exceeds 1.

Every multiplier depends on a tuple only through its row of constraint values
(f_1(x), ..., f_B(x)), so the state bins the domain tuples by that row
(np.unique over the rows) and each iteration computes one multiplier per
distinct row.  The accepted values of f_k are read from those rows: the
values f_k takes over the domain that satisfy its relation.  The multipliers
come from factoring's value-phasor kernel: per constraint and iteration, one
phasor P_v per violating value and one phasor Q_x per accepted value, so
cos Delta(x, v) = Re(Q_x * P_v).  Only t changes from step to step, so the
work splits in two.  Once per run, plan_steps cuts, per constraint, the
satisfied mask, the violating rows, the distinct values among them and the
table digits of those values and of the accepted values, all for one
table bound: the largest |value| over every constraint column.  Once per
step, one phase table serves every constraint; P_v is gathered from it,
and so is Q_x = conj(P_x), within an ulp or two of the exact phase, when
a constraint accepts more than one value.  A single accepted value
(equality constraints) keeps its exactly reduced target phasor.  Solve
reports therefore differ from those of versions that sized a table per
constraint from its violators alone in the last digits of their masses:
where a constraint accepts several values, and where any column holds
values of two or more 13-bit table digits, since the shared bound can
change the digit width and with it how P_v is split and rounded.  The
max is exact at every domain size: the largest Re(Q_x * P_v) is taken at
the Q_x nearest to conj(P_v) on the circle, found by one binary search
among the sorted angles of the Q_x, so a step costs
O((V + A) log A) for V distinct violating values and A accepted values,
plus one gather per violating row.  At b = 1,100 (x+y <= b, x*y >= b^2/8:
1.21M tuples, 10 steps) a run takes 1.3 s on two shared vCPUs, against
4.3-4.5 s when every step recut its digits and reduced every accepted value
exactly.  With a single accepted value the max is factoring's own
Re(Q * P_v): over the factoring rectangle, the embedding f = m1*m2, a = N
has factoring's product bins as its bins and reproduces that module's
arithmetic bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .constraints import ConstraintSystem, relation_accepts
from .dynamics import (OscillatorParams, PhaseTable, ValueDigits, alpha_at, check_run_limits,
                       eps_squared_batch, gather_phasors, normalize_alpha_schedule,
                       phase_table, target_phasors, value_digits)
from .ensemble import TrialEnsemble, amplify, condition_step, member_masses, sample
from .errors import DomainTooLarge, EmptyRange, InfeasibleSystem
from .factoring import STREAM_SAMPLE, STREAM_TIMES, sample_times
from .rng import SplitMix64

_STATE_CAP = 4_000_000
# every constraint's marker: identity linear coupling, Omega(v) = v
_MARKER = OscillatorParams(couplings=(1.0,))


@dataclass(frozen=True)
class AcceptedSet:
    """Accepted marker values of one constraint: the sorted distinct values
    of f_k over the trial domain that satisfy the relation."""

    relation: str
    bound: float
    values: np.ndarray

    def contains(self, vals: np.ndarray) -> np.ndarray:
        return np.isin(vals, self.values)


def build_accepted_sets(system: ConstraintSystem, state: TrialEnsemble) -> list:
    """Accepted value set per constraint, read from the state's keys (every
    value f_k takes over the domain); InfeasibleSystem if any is empty."""
    out = []
    for k, (expr, relation, bound) in enumerate(system.constraints):
        col = state.keys[:, k]
        vals = np.sort(col[relation_accepts(col, relation, bound)]).astype(np.int64)
        if len(vals) == 0:
            raise InfeasibleSystem(
                f"no achievable value of {expr.source!r} satisfies {relation} {bound}")
        # sort plus a change mask: np.unique hashes, ~30x slower at 2.25M keys
        first = np.ones(len(vals), dtype=bool)
        first[1:] = vals[1:] != vals[:-1]
        out.append(AcceptedSet(relation=relation, bound=bound, values=vals[first]))
    return out


@dataclass
class SolverReport:
    config: dict
    seed: int
    records: list
    solutions: list                    # (tuple, mass), ascending tuple order
    sampled_tuple: tuple
    solution_count: int
    estimated_iterations: int          # A*ln(max range)/ln(measured lambda)


@dataclass(frozen=True)
class _Cut:
    """The part of one constraint's multipliers over a column of values that
    does not depend on t: the satisfied mask, the violating entries, each
    one's index among the distinct violating values, those values' table
    digits, and the accepted values' digits (None for a single accepted
    value, whose phasor is reduced exactly per step).  A multiplier depends
    on an entry only through its value, so the phasor work runs once per
    distinct violating value: at b = 1,100, 1,100 of the 303,050 violating
    bins of x + y <= b, and 76,844 of the 233,699 of x*y >= b^2/8."""

    ok: np.ndarray
    bad: np.ndarray
    bad_value: np.ndarray
    bad_digits: ValueDigits
    accepted_digits: ValueDigits


def _cut(values: np.ndarray, accepted: AcceptedSet, table: PhaseTable) -> _Cut:
    distinct, inverse = np.unique(values, return_inverse=True)
    violates = ~accepted.contains(distinct)
    ok = ~violates[inverse]
    bad = np.flatnonzero(~ok)
    if not len(bad):
        return _Cut(ok, bad, bad, None, None)
    return _Cut(ok, bad, (np.cumsum(violates) - 1)[inverse[bad]],
                value_digits(table, distinct[violates]),
                value_digits(table, accepted.values) if len(accepted.values) > 1 else None)


def _bound(*arrays) -> int:
    """The largest |v| over the integer arrays (0 if all are empty)."""
    return max((max(-int(a.min()), int(a.max())) for a in arrays if a.size), default=0)


@dataclass(frozen=True)
class StepPlan:
    """What every solver step over one state's bins needs that does not
    depend on t, from plan_steps: the accepted sets, the bound every step's
    phase table covers, one _Cut per constraint and the mask of the bins
    that satisfy every constraint."""

    accepted: tuple
    bound: int
    cuts: tuple
    solved: np.ndarray


def plan_steps(keys: np.ndarray, accepted_sets) -> StepPlan:
    """Cut each constraint's column of keys (one row per bin) once for every
    step, against one table bound: the largest |value| over all columns and
    accepted values.  Value digits depend on a table's layout, not on its t,
    so the digits cut against the table at t = 0 serve every step's."""
    bound = _bound(keys, *(acc.values for acc in accepted_sets))
    table = phase_table(_MARKER, 0.0, bound)
    cuts = tuple(_cut(keys[:, k], acc, table) for k, acc in enumerate(accepted_sets))
    return StepPlan(accepted=tuple(accepted_sets), bound=bound, cuts=cuts,
                    solved=np.logical_and.reduce([c.ok for c in cuts]))


def _best_cos(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per value phasor p_v, the largest cos(Delta) = Re(q_x p_v) over the
    accepted-value phasors q_x.  That is taken at the q_x nearest to
    conj(p_v) on the circle, one of the two neighbours of -angle(p_v) among
    the sorted angles of q (with wrap-around): O((V + A) log A)."""
    angle = np.angle(q)
    order = np.argsort(angle)
    q = q[order]
    i = np.searchsorted(angle[order], -np.angle(p))
    return np.maximum((q[i - 1] * p).real, (q[i % len(q)] * p).real)


def constraint_multipliers(values, accepted: AcceptedSet, alpha_mag: float, t: float,
                           cut: _Cut, table: PhaseTable):
    """Per-entry mass multiplier for one constraint's column of values, and
    the satisfied mask: `cut` is the column's cut from plan_steps and `table`
    the step's phase table at t, built for the plan's bound."""
    mult = np.ones(len(values), dtype=np.float64)
    if not len(cut.bad):
        return mult, cut.ok
    p = gather_phasors(table, cut.bad_digits)
    if cut.accepted_digits is None:
        q = target_phasors(_MARKER, t, accepted.values)
    else:
        q = np.conjugate(gather_phasors(table, cut.accepted_digits))
    cos = _best_cos(p, q)[cut.bad_value]
    mult[cut.bad] = eps_squared_batch(alpha_mag, cos, out=cos)
    return mult, cut.ok


def solver_iteration(state: TrialEnsemble, plan: StepPlan, alpha_schedule: tuple, l: int,
                     t_l: float):
    """One joint conditioning of `state`, in place, over all B markers at
    |alpha| = alpha_at(alpha_schedule, l), with one phase table for every
    marker; returns (state, StepRecord).  `plan` is plan_steps over the
    state's bins, built once per run."""
    alpha_mag = alpha_at(alpha_schedule, l)
    table = phase_table(_MARKER, t_l, plan.bound)
    joint = None
    for k, (acc, cut) in enumerate(zip(plan.accepted, plan.cuts)):
        mult, _ = constraint_multipliers(state.keys[:, k], acc, alpha_mag, t_l, cut, table)
        joint = mult if joint is None else joint * mult
    return condition_step(state, joint, plan.solved, l, t_l, alpha_mag)


@dataclass(frozen=True)
class _TupleBins:
    """Members of a solver state: the domain tuples sorted by bin, in domain
    order within a bin; bin i holds rows starts[i]:starts[i+1]."""

    tuples: np.ndarray
    starts: np.ndarray

    def members(self, keys, i: int) -> np.ndarray:
        return self.tuples[self.starts[i] : self.starts[i + 1]]

    def member_rows(self, keys, bins: np.ndarray) -> np.ndarray:
        """The members of the given bins, bin after bin, by one gather."""
        lens = self.starts[bins + 1] - self.starts[bins]
        shift = np.repeat(self.starts[bins] - (np.cumsum(lens) - lens), lens)
        return self.tuples[np.arange(len(shift)) + shift]


def _int64_values(expr, cols: dict) -> np.ndarray:
    """f_k over the domain columns as int64 (the keys' widest dtype); values
    past 128 bits overflow in evaluation, past int64 in the cast."""
    try:
        return expr.evaluate_batch(cols).astype(np.int64, copy=False)
    except OverflowError:
        raise DomainTooLarge(f"{expr.source!r} takes values beyond int64 "
                             f"on the trial domain") from None


def uniform_state(system: ConstraintSystem, tuples: np.ndarray = None) -> TrialEnsemble:
    """Uniform mass over the domain tuples (default: the whole bounded box),
    binned by their rows of constraint values."""
    if tuples is None:
        size = system.domain_size()
        if size > _STATE_CAP:
            raise DomainTooLarge(f"{size} tuples exceeds the state cap {_STATE_CAP}")
        grids = np.meshgrid(*[np.arange(b + 1, dtype=np.int64) for _, b in system.variables],
                            indexing="ij")
        tuples = np.stack([g.ravel() for g in grids], axis=1)
    if len(tuples) == 0:
        raise EmptyRange("the trial domain holds no tuples")
    cols = {name: tuples[:, j] for j, name in enumerate(system.names)}
    values = np.stack([_int64_values(expr, cols) for expr, _, _ in system.constraints],
                      axis=1)
    # the rows of np.unique(values, axis=0), from one stable lexsort: 7x
    # faster at 2.25M rows, and it keeps domain order within a bin
    order = np.lexsort(values.T[::-1])
    values = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (values[1:] != values[:-1]).any(axis=1)
    starts = np.append(np.flatnonzero(first), len(values))
    keys = values[starts[:-1]]
    if -2**31 <= keys.min() and keys.max() < 2**31:
        keys = keys.astype(np.int32)       # the dtype of factoring's product keys
    return TrialEnsemble.uniform(keys, np.diff(starts).astype(np.int32),
                                 _TupleBins(tuples[order], starts))


def run_solver(system: ConstraintSystem, alpha_schedule=(2.0,), times="seeded",
               seed: int = 0, L_max: int = 40, stop_mass: float = 0.999999,
               domain: np.ndarray = None) -> SolverReport:
    """Amplify the feasible tuples of the system and report them.

    `alpha_schedule` gives |alpha| per iteration for every marker (see
    normalize_alpha_schedule); `domain` holds the trial tuples, one per row,
    default the bounded box.  Raises InfeasibleSystem before the first step
    when no tuple of the domain satisfies every constraint.
    """
    alpha_schedule = normalize_alpha_schedule(alpha_schedule)
    check_run_limits(L_max, stop_mass, "stop_mass")
    state = uniform_state(system, domain)
    plan = plan_steps(state.keys, build_accepted_sets(system, state))
    if not plan.solved.any():
        raise InfeasibleSystem("no tuple of the domain satisfies every constraint at once")

    master = SplitMix64(seed)
    stream = sample_times(times, master.derive(STREAM_TIMES), 1.0)
    # looked up per step, so a wrapper set on the module sees every call
    state, records = amplify(
        state, lambda s, l, t: solver_iteration(s, plan, alpha_schedule, l, t),
        islice(stream, L_max), stop_mass)
    solutions = member_masses(state, np.flatnonzero(plan.solved))

    lambdas = [1.0 / r.pr_E for r in records if r.pr_E < 1.0]
    if lambdas:
        lam_bar = math.exp(math.fsum(math.log(x) for x in lambdas) / len(lambdas))
    else:
        lam_bar = 1.0
    max_range = max(b + 1 for _, b in system.variables)
    est = (math.ceil(system.arity * math.log(max_range) / math.log(lam_bar))
           if lam_bar > 1.0 else 0)

    return SolverReport(
        config={"system": system.to_json(), "mode": "max", "seed": seed,
                "L_max": L_max, "stop_mass": stop_mass,
                "alpha_schedule": list(alpha_schedule)},
        seed=seed, records=records, solutions=solutions,
        sampled_tuple=sample(state, SplitMix64(master.derive(STREAM_SAMPLE))),
        solution_count=len(solutions), estimated_iterations=est,
    )
