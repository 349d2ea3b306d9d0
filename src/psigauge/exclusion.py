"""Minimize the exclusion sum over projective measurements.

The search runs on the unitary group: a basis is the column set of a
unitary B, the first d columns are assigned to the d outcomes, and descent
follows the Riemannian gradient. For f(B) = sum_k |<b_k|s_k>|^2 the
Euclidean gradient has columns G[:, k] = s_k <s_k|b_k> (zero for k >= d),
the skew-Hermitian descent direction is Omega = G B^H - B G^H, and the
retraction is B <- expm(-tau Omega) B. The directional derivative at tau=0
is exactly -||Omega||_F^2, which drives both the Armijo test and the
convergence criterion.

States living in a space smaller than the state count are zero-padded into
C^max(D, d): a projective measurement there restricts to a valid POVM on
the physical space, so the optimum is unchanged.

scipy.linalg is imported inside ``expm``, not at module level, so that
commands which never search do not pay for it at start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import Operator, Povm, StateVector, operator_to_json, outcome_table

ARMIJO_C = 1e-4
GRAD_TOL = 1e-8


def expm(matrix: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on the first retraction rather than
    with this module."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(matrix)


@dataclass(frozen=True)
class ExclusionProblem:
    """d states assigned to d measurement outcomes. All states must share
    one ambient dimension; the state count may exceed it (the optimizer
    embeds into a larger space)."""

    states: tuple

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("need at least one state")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"states live in mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def outcome_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ExclusionResult:
    best_value: float
    basis: np.ndarray  # unitary matrix, columns are the basis vectors
    restarts_used: int
    converged: bool
    history: tuple = ()  # per-iteration values of the winning descent

    def __post_init__(self):
        arr = np.asarray(self.basis, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "basis", arr)


def exclusion_value(states: Sequence[StateVector], povm: Povm) -> float:
    """sum_k P(outcome k | states[k]), read off the outcome table."""
    if povm.outcome_count < len(states):
        raise ValueError(
            f"POVM has {povm.outcome_count} outcomes for {len(states)} states"
        )
    return float(sum(outcome_table(states, povm).diagonal()))


def _state_matrix(problem: ExclusionProblem) -> np.ndarray:
    """States as columns, zero-padded so the space holds d orthonormal vectors."""
    d = problem.outcome_states
    dim = max(problem.dim, d)
    mat = np.zeros((dim, d), dtype=complex)
    for k, s in enumerate(problem.states):
        mat[: problem.dim, k] = s.amplitudes
    return mat


def _value_and_direction(smat: np.ndarray, basis: np.ndarray):
    d = smat.shape[1]
    overlaps = np.einsum("ik,ik->k", smat.conj(), basis[:, :d])
    value = float(np.sum(np.abs(overlaps) ** 2))
    grad = np.zeros_like(basis)
    grad[:, :d] = smat * overlaps[None, :]
    x = grad @ basis.conj().T
    omega = x - x.conj().T
    return value, omega


def _skew_basis(dim: int) -> list:
    """Real basis of the skew-Hermitian matrices (dimension dim**2)."""
    elems = []
    for i in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[i, i] = 1j
        elems.append(mat)
        for j in range(i + 1, dim):
            real = np.zeros((dim, dim), dtype=complex)
            real[i, j] = 1.0
            real[j, i] = -1.0
            elems.append(real)
            imag = np.zeros((dim, dim), dtype=complex)
            imag[i, j] = 1j
            imag[j, i] = 1j
            elems.append(imag)
    return elems


def _polish(smat: np.ndarray, basis: np.ndarray, value: float, rounds: int = 8):
    """Gauss-Newton steps on the overlap residuals.

    The objective is quartic around a perfect-exclusion basis (value and
    squared gradient both vanish there), where first-order descent decays
    only polynomially. Solving the linearized system <s_j|X b_j> = -o_j for
    a minimal-norm skew-Hermitian X and retracting converges quadratically
    whenever a zero-residual basis is nearby; each step is accepted only if
    it actually lowers the value, so the polish is harmless elsewhere.
    """
    d = smat.shape[1]
    elems = _skew_basis(basis.shape[0])
    for _ in range(rounds):
        overlaps = np.einsum("ik,ik->k", smat.conj(), basis[:, :d])
        if float(np.sum(np.abs(overlaps) ** 2)) <= 1e-30:
            break
        cols = []
        for elem in elems:
            moved = np.einsum("ik,ik->k", smat.conj(), (elem @ basis)[:, :d])
            cols.append(np.concatenate([moved.real, moved.imag]))
        coeffs, *_ = np.linalg.lstsq(
            np.array(cols).T,
            -np.concatenate([overlaps.real, overlaps.imag]),
            rcond=None,
        )
        step = np.tensordot(coeffs, np.array(elems), axes=1)
        trial = expm(step) @ basis
        trial_value, _ = _value_and_direction(smat, trial)
        if trial_value < value:
            basis, value = trial, trial_value
        else:
            break
    return value, basis


def _descend(smat: np.ndarray, basis: np.ndarray, max_iters: int, grad_tol: float):
    value, omega = _value_and_direction(smat, basis)
    history = [value]
    tau = 1.0
    for _ in range(max_iters):
        grad_sq = float(np.linalg.norm(omega) ** 2)
        if np.sqrt(grad_sq) <= grad_tol:
            break
        tau = min(1.0, 2.0 * tau)
        accepted = False
        while tau >= 1e-14:
            trial = expm(-tau * omega) @ basis
            trial_value, trial_omega = _value_and_direction(smat, trial)
            if trial_value <= value - ARMIJO_C * tau * grad_sq:
                basis, value, omega = trial, trial_value, trial_omega
                history.append(value)
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            # line search exhausted: flat point or numerical noise
            break
    value, basis = _polish(smat, basis, value)
    history.append(value)
    # remove orthonormality drift accumulated over many retractions; column
    # phases do not affect the value, so plain QR suffices
    q, _ = np.linalg.qr(basis)
    value, omega = _value_and_direction(smat, q)
    converged = float(np.linalg.norm(omega)) <= grad_tol
    return value, q, converged, tuple(history)


def _reference_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    return q[:, rng.permutation(dim)]


def optimize(
    problem: ExclusionProblem,
    restarts: int = 20,
    max_iters: int = 500,
    seed: int = 0,
    grad_tol: float = GRAD_TOL,
    stop_below: float = 1e-12,
) -> ExclusionResult:
    """Best local optimum over seeded random restarts.

    Restart r starts from a column-permuted sample of the unitary Haar
    measure drawn with seed + r; the winner is the lowest value, ties going
    to the earliest restart. Stops early once a converged restart reaches
    ``stop_below``. The reported value is recomputed from the returned
    basis, so result and basis agree exactly.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    smat = _state_matrix(problem)
    dim = smat.shape[0]
    best = None
    used = 0
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        value, basis, converged, history = _descend(
            smat, _reference_basis(dim, rng), max_iters, grad_tol
        )
        used += 1
        if best is None or value < best[0]:
            best = (value, basis, converged, history)
        if best[0] <= stop_below:
            break
    value, basis, converged, history = best
    return ExclusionResult(value, basis, used, converged, history)


def result_to_povm(result: ExclusionResult, outcome_states: int) -> Povm:
    """Projective POVM from the basis: one rank-1 effect per assigned
    outcome plus one lump effect for the discarded complement."""
    dim = result.basis.shape[0]
    if not 1 <= outcome_states <= dim:
        raise ValueError(f"assigned outcomes must lie in [1, {dim}]")
    effects = [
        Operator(dim, np.outer(result.basis[:, k], result.basis[:, k].conj()))
        for k in range(outcome_states)
    ]
    if outcome_states < dim:
        rest = result.basis[:, outcome_states:]
        effects.append(Operator(dim, rest @ rest.conj().T))
    return Povm(dim, tuple(effects))


def result_to_json(result: ExclusionResult) -> dict:
    return {
        "best_value": result.best_value,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "basis": operator_to_json(Operator(result.basis.shape[0], result.basis)),
    }
