"""Unstructured search by parity-coded conditioning.

A black box writes h(n) into the second register: even for solutions, odd for
everything else.  The marker couples linearly to that register, so after the
fixed time t_s = pi/g_tilde a solution's marker has returned exactly to
|alpha> (the marker frequency omega_3 is an even multiple of g_tilde) while a
non-solution's marker sits at |-alpha>.  Conditioning on |alpha> therefore
multiplies every non-solution amplitude by <alpha|-alpha> = exp(-2|alpha|^2),
i.e. its mass by exp(-4|alpha|^2), a huge suppression per iteration at
|alpha| = 2.

The parity arithmetic is carried symbolically: solution multipliers are the
exact float 1.0 and non-solution ones the exact exp(-4 alpha^2), with no trig
rounding in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import alpha_at, normalize_alpha_schedule
from .ensemble import TrialEnsemble, apply_entry_multipliers
from .errors import ConditionedMassVanished, DomainError, EmptyRange, NoSolutionFound


@dataclass(frozen=True)
class BlackBox:
    """Predicate over n in [0, domain_size) plus its integer parity encoding."""

    domain_size: int
    predicate: object                   # callable n -> bool
    encoding: object = None             # callable n -> int; default 0/1

    def __post_init__(self):
        if self.domain_size < 1:
            raise EmptyRange("search domain is empty")

    @classmethod
    def from_solution_indices(cls, domain_size: int, indices) -> "BlackBox":
        marked = frozenset(int(i) for i in indices)
        bad = [i for i in marked if not 0 <= i < domain_size]
        if bad:
            raise ValueError(f"solution indices outside the domain: {sorted(bad)[:5]}")
        return cls(domain_size=domain_size, predicate=lambda n: n in marked)

    def h(self, n: int) -> int:
        if self.encoding is None:
            return 0 if self.predicate(n) else 1
        v = int(self.encoding(n))
        if (v % 2 == 0) != bool(self.predicate(n)):
            raise ValueError(f"encoding parity disagrees with predicate at n={n}")
        return v


@dataclass(frozen=True)
class SearchConfig:
    g_tilde: float = 1.0
    omega3_multiple: int = 0           # omega_3 = multiple * g_tilde, even
    alpha_schedule: tuple = (2.0,)
    L_max: int = 20
    stop_mass: float = 0.999999
    seed: int = 0

    def __post_init__(self):
        if self.g_tilde <= 0:
            raise ValueError("g_tilde must be positive")
        if self.omega3_multiple % 2 != 0:
            raise ValueError("omega_3 must be an even multiple of g_tilde")
        object.__setattr__(self, "alpha_schedule",
                           normalize_alpha_schedule(self.alpha_schedule))
        if not 0.0 < self.stop_mass <= 1.0:
            raise ValueError("stop_mass must be in (0, 1]")

    @property
    def t_s(self) -> float:
        return math.pi / self.g_tilde

    def alpha_for(self, l: int) -> float:
        return alpha_at(self.alpha_schedule, l)


@dataclass(frozen=True)
class SearchRecord:
    l: int
    t_l: float
    alpha_mag: float
    pr_E: float
    C_l: float
    solution_mass: float


@dataclass
class SearchReport:
    config: dict
    records: list
    solutions: list                    # (n, mass) pairs, ascending n
    oracle_calls: int


def initial_search_state(box: BlackBox, m0: int = 0) -> TrialEnsemble:
    """Uniform mass 1/d on |n>|m0> over the whole domain."""
    d = box.domain_size
    tuples = np.empty((d, 2), dtype=np.int64)
    tuples[:, 0] = np.arange(d)
    tuples[:, 1] = m0
    return TrialEnsemble(arity=2, tuples=tuples, weights=np.full(d, 1.0 / d))


def apply_black_box(state: TrialEnsemble, box: BlackBox) -> TrialEnsemble:
    """(n, m) -> (n, h(n)); masses untouched.  One oracle call per entry."""
    out = state.copy()
    items = out.tuples[:, 0].tolist()
    out.tuples[:, 1] = np.fromiter((box.h(n) for n in items), dtype=np.int64,
                                   count=len(items))
    return out


def _parity_multipliers(state: TrialEnsemble, config: SearchConfig, alpha_mag: float):
    h_vals = state.tuples[:, 1]
    even = (h_vals % 2) == 0
    # marker return at t_s is exact integer-parity arithmetic:
    # phase change = pi * (omega3_multiple + h), an even multiple of pi for
    # every solution branch
    for h in np.unique(h_vals[even]):
        assert (config.omega3_multiple + int(h)) % 2 == 0
    mult = np.where(even, 1.0, math.exp(-4.0 * alpha_mag * alpha_mag))
    return mult, even


def solution_mass(state: TrialEnsemble) -> float:
    even = (state.tuples[:, 1] % 2) == 0
    return float(math.fsum(state.entry_masses()[even]))


def search_iteration(state: TrialEnsemble, config: SearchConfig, l: int,
                     prev_norm: float = 1.0):
    """Evolve t_s, condition on |alpha^(l)>; returns (state', SearchRecord)."""
    alpha_mag = config.alpha_for(l)
    mult, even = _parity_multipliers(state, config, alpha_mag)
    out = apply_entry_multipliers(state, mult, prev_norm=prev_norm)
    s_mass = solution_mass(out.post_state)
    rec = SearchRecord(l=l, t_l=config.t_s, alpha_mag=alpha_mag,
                       pr_E=out.probability, C_l=out.normalization,
                       solution_mass=s_mass)
    return out.post_state, rec


def run_search(config: SearchConfig, box: BlackBox) -> SearchReport:
    """Amplify until the solution mass reaches stop_mass, then read register 1."""
    state = apply_black_box(initial_search_state(box), box)
    records = []
    c_prev = 1.0
    try:
        for l in range(1, config.L_max + 1):
            state, rec = search_iteration(state, config, l, prev_norm=c_prev)
            records.append(rec)
            c_prev = rec.C_l
            if rec.solution_mass >= config.stop_mass:
                break
    except ConditionedMassVanished as exc:
        raise NoSolutionFound(f"conditioning extinguished the register: {exc}") from exc

    marked = np.flatnonzero(state.tuples[:, 1] % 2 == 0)
    solutions = list(zip(state.tuples[marked, 0].tolist(),
                         state.entry_masses()[marked].tolist()))
    if not solutions:
        raise NoSolutionFound(
            f"no marked item among {box.domain_size} after {len(records)} iterations")
    for n, _ in solutions:
        if not box.predicate(n):
            raise ValueError(f"black box parity/predicate mismatch at n={n}")
    return SearchReport(
        config={
            "g_tilde": config.g_tilde, "omega3_multiple": config.omega3_multiple,
            "alpha_schedule": list(config.alpha_schedule), "L_max": config.L_max,
            "stop_mass": config.stop_mass, "seed": config.seed,
            "domain_size": box.domain_size,
        },
        records=records, solutions=solutions, oracle_calls=box.domain_size,
    )


def required_iterations(domain_size: int, alpha_mag: float, delta: float) -> int:
    """Smallest L with domain_size * exp(-4 alpha^2 L) < delta."""
    if alpha_mag <= 0:
        raise DomainError("alpha magnitude must be positive")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must be in (0, 1)")
    if domain_size < 1:
        raise EmptyRange("domain must be nonempty")
    x = math.log(domain_size / delta) / (4.0 * alpha_mag * alpha_mag)
    return max(1, math.floor(x) + 1)
