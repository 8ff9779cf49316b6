"""Unstructured search by parity-coded conditioning.

A black box writes h(n) into the second register: 0 for solutions, 1 for
everything else.  The marker couples linearly to that register with strength
g_tilde, the unit of time here, so after the fixed time T_S = pi a solution's
marker has returned exactly to |alpha> while a non-solution's marker sits at
|-alpha>.  Conditioning on |alpha> therefore multiplies every non-solution
amplitude by <alpha|-alpha> = exp(-2|alpha|^2), i.e. its mass by
exp(-4|alpha|^2), a huge suppression per iteration at |alpha| = 2.  The
marker's own frequency turns both branches alike and cancels, and any other
h of the same parity would give the same state: only the parity of h
reaches it.

The parity arithmetic is carried symbolically: solution multipliers are the
exact float 1.0 and non-solution ones the exact exp(-4 alpha^2), with no trig
rounding in between.

Since the multiplier depends on an item only through the parity of h(n), the
state is two bins: the items with even h(n), kept as their sorted indices,
and the rest.  A box built from solution indices already holds that sorted
set, so its state costs O(marked) to build; any other box fills the bins in
one chunked pass of h over the domain.  An iteration costs O(1) and the
state O(marked) memory.  The iterations run through the solver's loop,
ensemble.amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .dynamics import alpha_at, check_run_limits, normalize_alpha_schedule
from .ensemble import TrialEnsemble, amplify, condition_step, member_masses
from .errors import DomainError, DomainTooLarge, EmptyRange, NoSolutionFound

# items the black box sees per call of h_batch, which bounds the marking
# pass's temporaries (~30 MiB)
_MARK_CHUNK = 1 << 20


@dataclass(frozen=True)
class BlackBox:
    """Predicate over n in [0, domain_size)."""

    domain_size: int
    predicate: object                   # callable n -> bool
    # sorted solutions, when built from_solution_indices
    marked: np.ndarray = field(default=None, compare=False)

    def __post_init__(self):
        if self.domain_size < 1:
            raise EmptyRange("search domain is empty")
        # items and bin counts are int64
        if self.domain_size >= 2**63:
            raise DomainTooLarge(f"search domain of {self.domain_size} items; "
                                 "items are int64, so at most 2^63 - 1")
        # the search takes `marked` as the solutions without running h, so a
        # set the predicate disagrees with is refused before any step
        m = self.marked
        if m is not None:
            if len(m) and (m[0] < 0 or m[-1] >= self.domain_size or np.any(np.diff(m) <= 0)):
                raise ValueError("marked items must be ascending, unique and inside "
                                 f"[0, {self.domain_size})")
            bad = [n for n in m.tolist() if not self.predicate(n)]
            if bad:
                raise ValueError(f"marked items that fail the predicate: {bad[:5]}")

    @classmethod
    def from_solution_indices(cls, domain_size: int, indices) -> "BlackBox":
        marked = frozenset(int(i) for i in indices)
        bad = [i for i in marked if not 0 <= i < domain_size]
        if bad:
            raise ValueError(f"solution indices outside the domain: {sorted(bad)[:5]}")
        # read-only: search states built from this box share the array
        members = np.array(sorted(marked), dtype=np.int64)
        members.flags.writeable = False
        return cls(domain_size=domain_size, predicate=lambda n: n in marked,
                   marked=members)

    def h(self, n: int) -> int:
        """0 for a solution, 1 for anything else."""
        return 0 if self.predicate(n) else 1

    def h_batch(self, items: np.ndarray) -> np.ndarray:
        """h over an array of items, one call of h per item."""
        return np.fromiter((self.h(n) for n in items.tolist()), dtype=np.int64,
                           count=len(items))


@dataclass(frozen=True)
class _Items:
    """Members of a search state: the items (n,) of [0, size).  Once the
    black box has run, bin 0 holds the `marked` ones (ascending) and bin 1
    the rest; before that, one bin holds them all."""

    size: int
    marked: np.ndarray = None

    def members(self, keys, i: int) -> np.ndarray:
        if self.marked is not None and i == 0:
            return self.marked[:, None]
        rest = np.arange(self.size, dtype=np.int64)
        if self.marked is not None:
            rest = np.delete(rest, self.marked)
        return rest[:, None]

    def member_rows(self, keys, bins) -> np.ndarray:
        """The members of the given bins, bin after bin."""
        return np.concatenate([np.empty((0, 1), np.int64),
                               *(self.members(keys, i) for i in bins)])


# the evolution time of every iteration, pi/g_tilde in units of 1/g_tilde
T_S = math.pi


@dataclass(frozen=True)
class SearchConfig:
    alpha_schedule: tuple = (2.0,)
    L_max: int = 20
    stop_mass: float = 0.999999
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha_schedule",
                           normalize_alpha_schedule(self.alpha_schedule))
        check_run_limits(self.L_max, self.stop_mass, "stop_mass")

    def alpha_for(self, l: int) -> float:
        return alpha_at(self.alpha_schedule, l)


@dataclass
class SearchReport:
    config: dict
    records: list
    solutions: list                    # (n, mass) pairs, ascending n
    oracle_calls: int


def initial_search_state(box: BlackBox, m0: int = 0) -> TrialEnsemble:
    """Uniform mass 1/d on |n>|m0> over the whole domain: one bin keyed m0."""
    return TrialEnsemble.uniform(np.array([m0], dtype=np.int64),
                                 np.array([box.domain_size], dtype=np.int64),
                                 _Items(box.domain_size))


def apply_black_box(state: TrialEnsemble, box: BlackBox) -> TrialEnsemble:
    """(n, m0) -> (n, h(n)) on the uniform initial state: the items split by
    the parity of h(n) into two bins, keyed 0 (even: the solutions) and 1,
    every item keeping mass 1/d.  A box built from solution indices gives its
    sorted marked set directly, so h runs on no item; any other box is
    evaluated in one chunked pass over the domain."""
    d = box.domain_size
    marked = box.marked
    if marked is None:
        chunks = []
        for lo in range(0, d, _MARK_CHUNK):
            items = np.arange(lo, min(lo + _MARK_CHUNK, d), dtype=np.int64)
            chunks.append(items[box.h_batch(items) == 0])
        marked = np.concatenate(chunks)
    return TrialEnsemble.uniform(np.array([0, 1], dtype=np.int64),
                                 np.array([len(marked), d - len(marked)], dtype=np.int64),
                                 _Items(d, marked))


def search_iteration(state: TrialEnsemble, config: SearchConfig, l: int):
    """Evolve T_S, condition on |alpha^(l)>; returns (state', StepRecord)."""
    alpha_mag = config.alpha_for(l)
    # at T_S the marker turns by pi * h, whole turns exactly for even h: those
    # bins keep multiplier 1
    even = state.keys % 2 == 0
    mult = np.where(even, 1.0, math.exp(-4.0 * alpha_mag * alpha_mag))
    return condition_step(state, mult, even, l, T_S, alpha_mag)


def run_search(config: SearchConfig, box: BlackBox) -> SearchReport:
    """Amplify until the solution mass reaches stop_mass, then read register 1.
    Raises NoSolutionFound before the first step if the box marks no item."""
    state = apply_black_box(initial_search_state(box), box)
    solved = state.keys % 2 == 0
    if not state.counts[solved].any():
        raise NoSolutionFound(f"the black box marks no item among {box.domain_size}")
    # looked up per step, so a wrapper set on the module sees every call
    state, records = amplify(state, lambda s, l, _: search_iteration(s, config, l),
                             repeat(T_S, config.L_max), config.stop_mass)
    solutions = [(n, w) for (n,), w in member_masses(state, np.flatnonzero(solved))]
    return SearchReport(
        config={
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
