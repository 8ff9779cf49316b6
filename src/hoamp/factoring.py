"""Iterated conditional measurement that concentrates mass on factor pairs.

One iteration I_l: attach a fresh marker |alpha^(l)>, let the diagonal
Hamiltonian rotate it for a time t_l, then condition on the marker having
rotated at the target frequency Omega_N.  Trial pairs whose product is N are
untouched; everything else is suppressed by |eps|^2 < 1.  Repeating with
random times drives the register onto the factor states.

Seeded times are drawn as t_l = (2*pi/g) * r_l with r_l uniform in [0, 1);
their unit is 1/g for g = |g_1|, the linear coupling, so they need g_1 != 0.

Every time is fixed before the run and every multiplier depends on a pair
only through n*m, so run_factoring computes all L_max steps in one streamed
pass over the product sieve (ensemble.ProductStream) and keeps no state.
The pass cuts the product range into pieces, runs of consecutive
KERNEL_BLOCK-slot sub-ranges whose bins are its blocks, shrinking toward
the end; its worker processes (HOAMP_THREADS, at most the usable CPUs: the
calling one and forked children) take them off one queue and sieve each
piece's slots, taking every block through every step with its table
digits cut once.  No child outlives the call.
Each process's memory is set by the sieve's window slot, the kernel block
and one kernel scratch, not by N, while the time grows with L_max, since
the stop rule only truncates the records afterwards.  The records and the
sample are bit-identical to a stored-state loop of run_iteration and
sample, however many processes run the pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

from .dynamics import (MarkerAmplitude, OscillatorParams, alpha_at, check_run_limits,
                       normalize_alpha_schedule)
from .ensemble import (
    ProductStream,
    TrialEnsemble,
    _index_of,
    conditional_update,
    fidelity,
    step_fraction,
    trial_rectangle,
)
from .errors import DomainError, NoFactorInRange
from .rng import SplitMix64

# child-stream indices off the master seed, shared by every command; fixed
# so reports are reproducible
STREAM_TIMES = 0
STREAM_SAMPLE = 1
STREAM_STATS = 2      # first of the per-run seeds of repeated runs (stats)

# published reference trajectory for the N = 1,030,189 = 1009 x 1021 example
# (|alpha| = 2, g = 1, K = 1): per iteration (fidelity, Pr(E_l), t_l)
TABLE1_N = 1_030_189
TABLE1_ROWS = (
    (2.010e-8, 0.143, 1.704),
    (1.403e-7, 0.143, 1.342),
    (9.782e-7, 0.143, 5.000),
    (6.821e-6, 0.143, 4.610),
    (4.739e-5, 0.144, 0.732),
    (3.259e-4, 0.145, 3.108),
    (2.172e-3, 0.150, 1.635),
    (1.445e-2, 0.150, 4.559),
    (1.045e-1, 0.138, 4.222),
    (5.092e-1, 0.205, 6.046),
    (8.506e-1, 0.599, 2.434),
    (9.919e-1, 0.858, 1.175),
    (9.985e-1, 0.994, 5.089),
    (9.997e-1, 0.999, 5.833),
    (1.000e-1, 1.000, 0.708),  # published fidelity here contradicts rows 13-14
)
TABLE1_TIMES = tuple(r[2] for r in TABLE1_ROWS)
# the final fidelity entry looks like a misprint for 1.000e0; it is reported
# in comparisons but excluded from pass/fail
TABLE1_SUSPECT_FIDELITY_ROWS = (15,)

# The published times carry three decimals, so they all sit on a 1/1000 grid.
# Any product u with u - N near a multiple of 2*pi*1000 is then quasi-resonant
# at EVERY listed time (the residual angle stays small for all fifteen
# conditionings), and those comb bins retain ~1e-5 of the mass that full-
# precision times would have suppressed.  Fidelity consequently stalls near
# 3e-4 from row 5 on.  The reference trajectory itself is sound: re-running
# with full-precision seeded times reproduces its profile, reaching F > 0.999
# within 14-15 iterations.  Only the rounding of the printed times is lossy.
# Drawing each time uniformly from its rounding interval [t - 5e-4, t + 5e-4)
# breaks the comb.  Over 83 such draws rows 1-4 always match at the replay
# tolerances, rows 5 and 15 in all but a few draws and row 14 in ~4 of 5,
# while rows 6-13 move from draw to draw by far more than those tolerances
# (Pr of row 11 spans 0.22-0.73), with the published values inside that
# spread: the printed values do not determine those rows that closely.
# scripts/table1_spread.py measures this.
TABLE1_TIME_GRID_NOTE = (
    "note: the reference times are printed with three decimals; on that 1/1000 "
    "grid every product with u - N near a multiple of 2*pi*1000 stays "
    "quasi-resonant at all fifteen times, so rows 5-14 cannot be matched from "
    "the printed values (full-precision seeded times do reach F > 0.999 within "
    "15 iterations)."
)


@dataclass(frozen=True)
class FactoringConfig:
    N: int
    params: OscillatorParams = OscillatorParams()
    alpha_schedule: tuple = (2.0,)     # constant once the list is exhausted
    times: object = "seeded"           # 'seeded' or an explicit sequence
    seed: int = 0
    L_max: int = 30
    stop_fidelity: float = 0.99

    def __post_init__(self):
        object.__setattr__(self, "alpha_schedule",
                           normalize_alpha_schedule(self.alpha_schedule))
        check_run_limits(self.L_max, self.stop_fidelity, "stop_fidelity")
        if self.N < 2:
            raise ValueError("N must be >= 2")

    def alpha_for(self, l: int) -> float:
        return alpha_at(self.alpha_schedule, l)


@dataclass(frozen=True)
class IterationRecord:
    l: int
    t_l: float
    alpha_mag: float
    pr_E: float
    C_l: float
    lambda_l: float
    fidelity: float
    resonant: bool = False     # Pr ~ 1 while fidelity still below target


@dataclass
class RunReport:
    config: dict
    seed: int
    initial_fidelity: float
    records: list
    final_fidelity: float
    sampled_tuple: tuple = None
    sampled_factors: tuple = None      # set only when the product equals N


def sample_times(policy, seed: int, g: float):
    """Stream of evolution times: (2*pi/g) * uniform, or an explicit list."""
    if isinstance(policy, str):
        if policy != "seeded":
            raise ValueError(f"unknown time policy {policy!r}")
        if not g > 0:
            raise DomainError(f"seeded times are drawn in units of 1/|g_1|, and "
                              f"|g_1| = {g:g}: give explicit times (--times)")
        rng = SplitMix64(seed)
        scale = 2.0 * math.pi / g
        while True:
            yield scale * rng.uniform()
    else:
        yield from policy


def estimate_iterations(pr0: float, lambda_bar: float) -> int:
    """ceil(ln(1/pr0) / ln(lambda_bar)): iterations to amplify pr0 to ~1."""
    if not 0.0 < pr0 < 1.0:
        raise DomainError("pr0 must be in (0, 1)")
    if lambda_bar <= 1.0:
        raise DomainError("lambda_bar must exceed 1")
    return math.ceil(math.log(1.0 / pr0) / math.log(lambda_bar))


def _record(config: FactoringConfig, l: int, t_l: float, alpha_mag: float, pr: float,
            c: float, f_l: float) -> IterationRecord:
    return IterationRecord(
        l=l, t_l=t_l, alpha_mag=alpha_mag, pr_E=pr, C_l=c, lambda_l=1.0 / pr,
        fidelity=f_l, resonant=(pr > 0.999 and f_l < config.stop_fidelity),
    )


def _no_factor(N: int) -> NoFactorInRange:
    return NoFactorInRange(f"no factor pair of {N} inside the trial ranges")


def run_iteration(state: TrialEnsemble, config: FactoringConfig, l: int, t_l: float):
    """One conditioning I_l of a stored state, in place; returns (state, record).
    NoFactorInRange, before conditioning, if no pair of the state multiplies
    to N."""
    hit = _index_of(state.keys, config.N)
    if hit is None:
        raise _no_factor(config.N)
    alpha = MarkerAmplitude(config.alpha_for(l))
    out = conditional_update(state, config.params, alpha, config.N, t_l, in_place=True)
    rec = _record(config, l, t_l, alpha.magnitude, out.probability, out.normalization,
                  fidelity(int(state.counts[hit]), float(state.mass[hit]), state.total))
    return out.post_state, rec


def run_factoring(config: FactoringConfig, progress: bool = False) -> RunReport:
    """Iterate I_l until stop_fidelity or L_max (or the end of an explicit
    list of times), then sample the register.

    All min(L_max, len(times)) steps are computed in one streamed pass; the
    records stop at the first step that reaches stop_fidelity, and the
    sample is drawn from the state after it.  With `progress`, the pass
    reports each tenth of the product range on stderr, and the per-step
    lines follow once it is done.
    """
    rect = trial_rectangle(config.N)                # DomainTooLarge before any scan
    if not len(rect.members([config.N], 0)):
        raise _no_factor(config.N)
    master = SplitMix64(config.seed)
    g = abs(config.params.couplings[0])
    times = list(islice(sample_times(config.times, master.derive(STREAM_TIMES), g),
                        config.L_max))
    alphas = [config.alpha_for(l) for l in range(1, len(times) + 1)]
    def show(share):
        print(f"  sieved {share:4.0%} of the product range", file=sys.stderr)

    stream = ProductStream(rect, config.params, config.N, list(zip(times, alphas)),
                           progress=show if progress else None)

    count, mass = stream.hit
    f0 = fidelity(count, mass, stream.total(0))
    records = []
    for l, (t_l, alpha_mag) in enumerate(zip(times, alphas), start=1):
        c = stream.total(l)
        rec = _record(config, l, t_l, alpha_mag, step_fraction(c, stream.total(l - 1)), c,
                      fidelity(count, mass, c))
        records.append(rec)
        if progress:
            print(f"  l={rec.l:2d} t={rec.t_l:8.4f} pr={rec.pr_E:10.4e} "
                  f"F={rec.fidelity:10.4e}", file=sys.stderr)
        if rec.fidelity >= config.stop_fidelity:
            break

    drawn = stream.sample(len(records), SplitMix64(master.derive(STREAM_SAMPLE)))
    factors = drawn if drawn[0] * drawn[1] == config.N else None
    return RunReport(
        config=config_echo(config), seed=config.seed, initial_fidelity=f0,
        records=records, final_fidelity=records[-1].fidelity if records else f0,
        sampled_tuple=drawn, sampled_factors=factors,
    )


def config_echo(config: FactoringConfig) -> dict:
    return {
        "N": config.N,
        "couplings": list(config.params.couplings),
        "order": config.params.order,
        "alpha_schedule": list(config.alpha_schedule),
        "times": "seeded" if isinstance(config.times, str) else list(config.times),
        "seed": config.seed,
        "L_max": config.L_max,
        "stop_fidelity": config.stop_fidelity,
    }


def replay_table1(progress: bool = False) -> RunReport:
    """Re-run the published 15-iteration reference trajectory.

    Streams the 123 million product bins of the 346,833,979 trial pairs
    through all 15 steps: ~9 s on two worker processes on two shared
    vCPUs, at a 42 MiB peak in the calling process and 35 MiB in the child,
    and ~16 s at 42 MiB on one.
    """
    config = FactoringConfig(
        N=TABLE1_N, alpha_schedule=(2.0,), times=TABLE1_TIMES,
        L_max=len(TABLE1_TIMES), stop_fidelity=1.0,
    )
    return run_factoring(config, progress=progress)


@dataclass(frozen=True)
class ComparisonRow:
    l: int
    t_l: float
    ref_fidelity: float
    computed_fidelity: float
    ref_pr: float
    computed_pr: float
    pr_abs_diff: float
    fidelity_rel_diff: float
    fidelity_checked: bool
    passed: bool


# replay acceptance tolerances
PR_ABS_TOL = 0.002
FID_REL_TOL = 0.02


def table1_comparison(report: RunReport) -> list:
    """Row-by-row diff of a replay report against the reference trajectory."""
    rows = []
    for (ref_f, ref_pr, t_l), rec in zip(TABLE1_ROWS, report.records):
        pr_diff = abs(rec.pr_E - ref_pr)
        f_rel = abs(rec.fidelity - ref_f) / ref_f
        checked = rec.l not in TABLE1_SUSPECT_FIDELITY_ROWS
        ok = pr_diff <= PR_ABS_TOL and (not checked or f_rel <= FID_REL_TOL)
        rows.append(ComparisonRow(
            l=rec.l, t_l=t_l, ref_fidelity=ref_f, computed_fidelity=rec.fidelity,
            ref_pr=ref_pr, computed_pr=rec.pr_E, pr_abs_diff=pr_diff,
            fidelity_rel_diff=f_rel, fidelity_checked=checked, passed=ok,
        ))
    return rows
