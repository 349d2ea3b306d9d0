"""Minimize the exclusion sum over measurements with one outcome per state.

Compressing a POVM onto span(states) keeps its exclusion sum, so the search
runs there: with S = Q R (Q is D x r, r = min(D, d)) it works on C = Q^H S,
zero-padded to d rows, over unitaries B of C^d, outcome k owning column b_k.
The answer lifts to U = Q B[:r, :], returned as ``Povm.completion(U)``,
whose even complement (I - Q Q^H)/d never touches a state.

Descent follows the Riemannian gradient on the unitary group: for
f(B) = sum_k |<c_k|b_k>|^2 the direction is the skew-Hermitian
Omega = G B^H - B G^H with G[:, k] = c_k <c_k|b_k>, one eigh of i Omega gives
exp(-tau Omega) B for every backtracking tau, and the slope at tau = 0 is
exactly -||Omega||_F^2, which drives both the Armijo test and the gradient stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import Povm, StateVector, _amplitudes, _complex_json, _frozen, outcome_table

ARMIJO_C = 1e-4
GRAD_TOL = 1e-8
#: a descent, and the restarts, stop once the exclusion sum is this small
STOP_VALUE = 1e-12
#: restarts end once the best value is this close to the dual bound
CERTIFICATE_GAP = 1e-9


@dataclass(frozen=True)
class ExclusionProblem:
    """d states assigned to d measurement outcomes. All states must share
    one ambient dimension; the state count may exceed it."""

    states: tuple

    def __post_init__(self):
        states = tuple(self.states)
        _amplitudes(states)  # a nonempty family of one dimension
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
    basis: np.ndarray  # D x d lifted vectors U; column k belongs to outcome k
    restarts_used: int
    stop_reason: str  # "value", "certificate", "gradient" or "iterations"
    dual_bound: float  # no measurement on these states scores below it
    history: tuple = ()  # per-iteration values of the winning descent

    def __post_init__(self):
        object.__setattr__(self, "basis", _frozen(np.asarray(self.basis, dtype=complex)))

    @property
    def gap(self) -> float:
        return self.best_value - self.dual_bound


def exclusion_value(states: Sequence[StateVector], povm: Povm) -> float:
    """sum_k P(outcome k | states[k]), read off the outcome table."""
    if povm.outcome_count != len(states):
        raise ValueError(f"POVM has {povm.outcome_count} outcomes for {len(states)} states")
    return float(sum(outcome_table(states, povm).diagonal()))


def _overlaps(coeffs: np.ndarray, basis: np.ndarray) -> tuple:
    """(o, X): the overlaps o_k = <c_k|b_k> and X = sum_k o_k c_k b_k^H."""
    overlaps = np.einsum("ik,ik->k", coeffs.conj(), basis)
    return overlaps, (coeffs * overlaps) @ basis.conj().T


def _value_and_direction(coeffs: np.ndarray, basis: np.ndarray):
    overlaps, x = _overlaps(coeffs, basis)
    return float(np.sum(np.abs(overlaps) ** 2)), x - x.conj().T


def _geodesic(omega: np.ndarray, basis: np.ndarray):
    """tau -> exp(-tau Omega) B for a skew-Hermitian Omega, from one eigh."""
    w, v = np.linalg.eigh(1j * omega)
    vb = v.conj().T @ basis
    return lambda tau: (v * np.exp(1j * tau * w)) @ vb


def _polish(coeffs: np.ndarray, basis: np.ndarray, value: float):
    """Up to 8 Gauss-Newton steps on the overlap residuals o_k = <c_k|b_k>.

    The objective is quartic around a perfect-exclusion basis, where
    first-order descent decays only polynomially. The minimal-norm
    skew-Hermitian X solving <c_k|X b_k> = -o_k converges quadratically when
    a zero-residual basis is near, and a step is kept only if it lowers the
    value. Under Re tr(A^H X), Re and Im of <c_k|X b_k> are products with
    the skew-Hermitian parts of c_k b_k^H and i c_k b_k^H, so X combines
    these 2d rows by their 2d x 2d Gram system.
    """
    d = coeffs.shape[1]
    for _ in range(8):
        if value <= 1e-30:
            break
        overlaps, _ = _overlaps(coeffs, basis)
        outer = coeffs.T[:, :, None] * basis.conj().T[:, None, :]
        outer = np.concatenate([outer, 1j * outer])
        rows = 0.5 * (outer - outer.conj().transpose(0, 2, 1)).reshape(2 * d, -1)
        rhs = -np.concatenate([overlaps.real, overlaps.imag])
        weights = np.linalg.lstsq((rows.conj() @ rows.T).real, rhs, rcond=None)[0]
        trial = _geodesic(-(weights @ rows).reshape(d, d), basis)(1.0)
        trial_value, _ = _value_and_direction(coeffs, trial)
        if trial_value >= value:
            break
        basis, value = trial, trial_value
    return value, basis


def _descend(coeffs, basis, max_iters: int):
    """One descent: (value, basis, stop reason, history). The reason is
    "gradient" when descent reached a stationary point (gradient norm at
    most GRAD_TOL, or no Armijo step left) and "iterations" when
    ``max_iters`` ran out, unless the value ended at most STOP_VALUE."""
    value, omega = _value_and_direction(coeffs, basis)
    history = [value]
    tau = 1.0
    reason = "gradient"
    for it in range(1, max_iters + 1):
        grad_sq = float(np.linalg.norm(omega) ** 2)
        if value <= STOP_VALUE or np.sqrt(grad_sq) <= GRAD_TOL:
            break
        if it >= 8 and it & (it - 1) == 0:  # polish at iterations 8, 16, 32, ...
            polished, trial = _polish(coeffs, basis, value)
            if polished < value:
                basis, value = trial, polished
                _, omega = _value_and_direction(coeffs, basis)
                history.append(value)
                continue
        tau = min(1.0, 2.0 * tau)
        along = _geodesic(omega, basis)
        while tau >= 1e-14:
            trial = along(tau)
            trial_value, trial_omega = _value_and_direction(coeffs, trial)
            if trial_value <= value - ARMIJO_C * tau * grad_sq:
                basis, value, omega = trial, trial_value, trial_omega
                history.append(value)
                break
            tau *= 0.5
        else:
            break  # line search exhausted: flat point or numerical noise
    else:
        reason = "iterations"
    value, basis = _polish(coeffs, basis, value)
    history.append(value)
    # remove orthonormality drift accumulated over many retractions; column
    # phases do not affect the value, so plain QR suffices
    q, _ = np.linalg.qr(basis)
    value, _ = _value_and_direction(coeffs, q)
    return value, q, "value" if value <= STOP_VALUE else reason, tuple(history)


def _dual_bound(coeffs: np.ndarray, vectors: np.ndarray) -> float:
    """Lower bound on every measurement's exclusion sum, from the r x d states
    and outcome vectors written in an orthonormal basis of span(states).

    The dual of min sum_k tr(rho_k E_k) is max tr Y s.t. Y <= rho_k for all k
    (Bandyopadhyay, Jain, Oppenheim, Perry, arXiv:1306.4683). Y is the
    Hermitian part of sum_k rho_k E_k (the optimum's dual point by
    complementary slackness), shifted down by its worst violation: feasible.
    """
    _, x = _overlaps(coeffs, vectors)
    y = 0.5 * (x + x.conj().T)
    rhos = coeffs.T[:, :, None] * coeffs.conj().T[:, None, :]
    slack = float(np.linalg.eigvalsh(rhos - y).min())
    return float(np.trace(y).real) + coeffs.shape[0] * min(0.0, slack)


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
) -> ExclusionResult:
    """Best local optimum over seeded random restarts.

    Restart r starts from a column-permuted sample of the unitary Haar
    measure on C^d drawn with seed + r; the winner is the lowest value, ties
    going to the earliest restart. Restarts stop once the winner reaches
    STOP_VALUE (stop reason "value") or lies within CERTIFICATE_GAP of
    the best dual bound so far ("certificate"); otherwise the reason is the
    winner's own. The reported value is recomputed from the returned
    measurement, so result and basis agree exactly.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    smat = _amplitudes(problem.states).T
    q, _ = np.linalg.qr(smat)
    r, d = q.shape[1], smat.shape[1]
    coeffs = np.zeros((d, d), dtype=complex)
    coeffs[:r] = q.conj().T @ smat
    best, bound = None, -np.inf
    for used in range(1, restarts + 1):
        start = _reference_basis(d, np.random.default_rng(seed + used - 1))
        run = _descend(coeffs, start, max_iters)
        bound = max(bound, _dual_bound(coeffs[:r], run[1][:r]))
        if best is None or run[0] < best[0]:
            best = run
        if best[0] <= STOP_VALUE:
            reason = "value"
            break
        if best[0] - bound <= CERTIFICATE_GAP:
            reason = "certificate"
            break
    else:
        reason = best[2]
    lifted = q @ best[1][:r]
    value = exclusion_value(problem.states, Povm.completion(lifted))
    return ExclusionResult(value, lifted, used, reason, bound, best[3])


def result_to_povm(result: ExclusionResult, outcome_states: int) -> Povm:
    """``Povm.completion`` of the lifted basis: one outcome per state."""
    if outcome_states != result.basis.shape[1]:
        raise ValueError(f"the search assigned {result.basis.shape[1]} outcomes")
    return Povm.completion(result.basis)


def result_to_json(result: ExclusionResult) -> dict:
    """The basis is the D x d lifted U: {"dim": D, "outcomes": d, "re", "im"}, row-major."""
    dim, outcomes = result.basis.shape
    return {
        "best_value": result.best_value,
        "dual_bound": result.dual_bound,
        "gap": result.gap,
        "restarts_used": result.restarts_used,
        "stop_reason": result.stop_reason,
        "basis": {**_complex_json(dim, result.basis), "outcomes": outcomes},
    }
