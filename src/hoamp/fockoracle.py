"""Brute-force ground truth on a truncated Fock lattice.

Test-only reference implementation: the joint register+marker state is held as
a dense complex array, time evolution applies the diagonal Hamiltonian phases
per basis state, and the conditional measurement projects the marker onto an
explicitly constructed coherent vector.  Deliberately slow and ignorant of the
closed-form overlap used by the fast path, so the two can only agree if both
are right.  Unlike the engine, which keeps one real mass per bin of tuples
that share a conditioning argument, the oracle carries one complex amplitude
per register tuple.  Chaining dense_condition therefore checks that no
reported quantity depends on the phases, and comparing its per-tuple masses
with the engine's bin masses shared equally among the members checks the
equal-share argument the engine's state rests on.

The oracle computes each marker's rotation frequency Omega_u = sum_k g_k u^k
itself, and takes the oscillators' own frequencies, which the engine drops,
as arguments of its own: register_omegas, one per register oscillator, and
marker_omega.  With them nonzero, agreement with the engine shows that they
cancel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MarkerAmplitude, OscillatorParams
from .errors import ConditionedMassVanished, HoampError

_MAX_JOINT_DIM = 1_000_000


class DimensionTooLarge(HoampError):
    """Dense Fock-space oracle asked for a joint dimension above its cap."""


class CutoffTooSmall(HoampError):
    """Fock cutoff too low to hold a coherent state to the required mass."""


def required_cutoff(alpha_mag: float) -> int:
    return int(math.ceil(alpha_mag**2 + 10.0 * alpha_mag + 10.0))


def coherent_vector(alpha, M: int) -> np.ndarray:
    """Fock components of |alpha>: alpha^f e^{-|alpha|^2/2} / sqrt(f!)."""
    a = alpha.magnitude if isinstance(alpha, MarkerAmplitude) else complex(alpha)
    if M < required_cutoff(abs(a)):
        raise CutoffTooSmall(
            f"cutoff {M} < required {required_cutoff(abs(a))} for |alpha|={abs(a):.3g}")
    v = np.empty(M, dtype=np.complex128)
    v[0] = 1.0
    for f in range(1, M):
        v[f] = v[f - 1] * a / math.sqrt(f)
    v *= math.exp(-abs(a) ** 2 / 2.0)
    deficit = abs(1.0 - float(np.vdot(v, v).real))
    if deficit > 1e-12:
        raise CutoffTooSmall(f"truncation deficit {deficit:.2e} at cutoff {M}")
    return v


@dataclass
class DenseJointState:
    """Register entries tensor a marker Fock space: psi[entry, fock_level]."""

    tuples: np.ndarray             # (n_entries, arity) int64
    cutoff: int
    psi: np.ndarray                # (n_entries, cutoff) complex128

    def norm_sq(self) -> float:
        return float(np.vdot(self.psi, self.psi).real)


def rotation_frequency(params: OscillatorParams, u: int, marker_omega: float = 0.0) -> float:
    """Omega_u = marker_omega + sum_k g_k u^k, the marker's frequency on
    product term u."""
    return math.fsum([marker_omega] + [g * u**k for k, g in enumerate(params.couplings, 1)])


def _product_term(tup) -> int:
    u = 1
    for x in tup:
        u *= int(x)
    return u


def _evolved_marker_rows(tuples, params, t, alpha, term_fn, register_omegas, marker_omega):
    """Dense joint evolution: each register row picks up the phase
    sum_j omega_j m_j of its oscillators, and its marker per-Fock-level
    phases at its own effective rotation frequency (no coherent closed form)."""
    M = required_cutoff(alpha.magnitude) + 5
    n_entries = len(tuples)
    if n_entries * M > _MAX_JOINT_DIM:
        raise DimensionTooLarge(f"joint dimension {n_entries * M} exceeds {_MAX_JOINT_DIM}")
    v0 = coherent_vector(alpha, M)
    levels = np.arange(M, dtype=np.float64)
    rows = np.empty((n_entries, M), dtype=np.complex128)
    for e, tup in enumerate(tuples):
        omega_eff = rotation_frequency(params, term_fn(tup), marker_omega)
        reg_phase = math.fsum(w * int(m) for w, m in zip(register_omegas, tup))
        rows[e] = v0 * np.exp(-1j * (reg_phase + omega_eff * levels) * t)
    return rows, M


def dense_condition(tuples: np.ndarray, amplitudes: np.ndarray, params: OscillatorParams,
                    t: float, target_term: int, alpha: MarkerAmplitude, term_fn=None,
                    register_omegas=(), marker_omega: float = 0.0):
    """One full measurement cycle on complex register amplitudes, dense.

    Attaches |alpha> to each row, evolves the joint state and projects the
    marker onto the coherent state the target branch has rotated to.
    Returns (post amplitudes, renormalized; probability).  `term_fn` maps an
    occupation tuple to the marker coupling argument; default is the product
    of the components.  `register_omegas` (one per register oscillator,
    missing ones 0) and `marker_omega` are the oscillators' own frequencies.
    """
    term_fn = term_fn or _product_term
    rows, M = _evolved_marker_rows(tuples, params, t, alpha, term_fn, register_omegas,
                                   marker_omega)
    omega_target = rotation_frequency(params, target_term, marker_omega)
    v_target = coherent_vector(alpha.magnitude * cmath.exp(-1j * omega_target * t), M)
    joint = DenseJointState(tuples=tuples, cutoff=M, psi=amplitudes[:, None] * rows)
    if abs(joint.norm_sq() - 1.0) > 1e-10:
        raise ValueError(f"joint norm drifted to {joint.norm_sq()!r}")
    amps = joint.psi @ v_target.conj()
    prob = float(np.vdot(amps, amps).real)
    if prob < 1e-300:
        raise ConditionedMassVanished(f"dense surviving mass {prob:.3e}")
    return amps / math.sqrt(prob), prob


def brute_force_step(tuples: np.ndarray, masses: np.ndarray, params: OscillatorParams,
                     t: float, target_term: int, alpha: MarkerAmplitude, term_fn=None,
                     register_omegas=(), marker_omega: float = 0.0):
    """dense_condition on per-tuple masses, from amplitudes sqrt(mass).

    Returns (post masses |amplitude|^2, probability).
    """
    amps, prob = dense_condition(tuples, np.sqrt(masses), params, t, target_term, alpha,
                                 term_fn, register_omegas, marker_omega)
    return amps.real**2 + amps.imag**2, prob


def dense_marker_overlaps(values, omega_k: float, alpha: MarkerAmplitude, t: float,
                          accepted_values) -> np.ndarray:
    """<target_x(t)|marker_v(t)> for each value v against each accepted x.

    Dense counterpart of the constraint-marker overlap: the marker for value v
    is |alpha> evolved by per-Fock-level phases at omega_k + v, the target for
    accepted value x is the coherent state rotated to omega_k + x.  Shape of
    the result: (len(values), len(accepted_values)).
    """
    M = required_cutoff(alpha.magnitude) + 5
    v0 = coherent_vector(alpha, M)
    levels = np.arange(M, dtype=np.float64)
    targets = [
        coherent_vector(alpha.magnitude * cmath.exp(-1j * (omega_k + float(x)) * t), M)
        for x in accepted_values
    ]
    out = np.empty((len(values), len(accepted_values)), dtype=np.complex128)
    for i, v in enumerate(values):
        marker = v0 * np.exp(-1j * (omega_k + float(v)) * levels * t)
        for j, tv in enumerate(targets):
            out[i, j] = np.vdot(tv, marker)
    return out
