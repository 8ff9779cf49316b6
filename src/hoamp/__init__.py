"""Amplitude amplification on coupled harmonic oscillators.

Candidate integers (or tuples) are encoded as Fock occupation numbers of a
register of oscillators; nonlinear couplings make one marker oscillator per
constraint rotate at a frequency set by the candidate.  Measuring the markers
against the coherent state a satisfying candidate would produce suppresses
everything else geometrically per step.  Built on top of that:

* factoring       trial pairs (n, m), marker keyed to the product n*m
* search          unstructured domain, one conditioning step per oracle round
* solver          systems of polynomial integer constraints f_k(x) <=,=,>= a_k
"""

from .constraints import ConstraintExpr, ConstraintSystem, evaluate_constraints, feasible_set
from .dynamics import (MarkerAmplitude, OscillatorParams, PhaseDelta, epsilon_overlap,
                       phase_delta, phase_delta_batch)
from .ensemble import (MeasurementOutcome, TrialEnsemble, conditional_update,
                       factoring_ranges, fidelity, init_uniform_factoring, sample)
from .errors import (ConditionedMassVanished, DomainError, DomainTooLarge, EmptyRange,
                     HoampError, InfeasibleSystem, NoFactorInRange, NoSolutionFound,
                     ParseError)
from .factoring import (FactoringConfig, IterationRecord, RunReport, estimate_iterations,
                        replay_table1, run_factoring, table1_comparison)
from .rng import SplitMix64
from .search import (BlackBox, SearchConfig, SearchReport, required_iterations,
                     run_search)
from .solver import AcceptedSet, SolverReport, run_solver

__version__ = "0.1.0"

__all__ = [
    "AcceptedSet", "BlackBox", "ConditionedMassVanished", "ConstraintExpr",
    "ConstraintSystem", "DomainError", "DomainTooLarge", "EmptyRange", "FactoringConfig",
    "HoampError", "InfeasibleSystem", "IterationRecord", "MarkerAmplitude", "MeasurementOutcome",
    "NoFactorInRange", "NoSolutionFound", "OscillatorParams",
    "ParseError", "PhaseDelta", "RunReport", "SearchConfig", "SearchReport",
    "SolverReport", "SplitMix64", "TrialEnsemble", "conditional_update",
    "epsilon_overlap", "estimate_iterations", "evaluate_constraints", "factoring_ranges",
    "feasible_set", "fidelity", "init_uniform_factoring", "phase_delta",
    "phase_delta_batch", "replay_table1", "required_iterations", "run_factoring",
    "run_search", "run_solver", "sample", "table1_comparison",
]
