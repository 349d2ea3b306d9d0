"""Linear-algebra substrate: pure states, effects, POVMs, tensor powers,
Gram matrices, and isometries built from state correspondences.

Everything is dense numpy. Values are immutable after construction (their
arrays are frozen), every operation is a pure function, and all randomness
flows through explicit seeds, so identical calls give identical results.

Tolerances follow a three-tier convention used across the package:

* ``NORM_TOL``     (1e-12) for state normalization,
* ``OP_TOL``       (1e-10) for operator identities (Hermiticity, completeness),
* ``RESIDUAL_TOL`` (1e-9)  for residuals of numerically constructed objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
OP_TOL = 1e-10
RESIDUAL_TOL = 1e-9

#: hard cap on the amplitude count of tensor powers (keeps promises desk-scale)
TENSOR_CAP = 10**6


class ContractViolation(RuntimeError):
    """A numerical guarantee failed beyond its documented tolerance."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """A pure state: unit vector of complex amplitudes.

    Normalization is enforced at construction (``NORM_TOL`` on the squared
    norm); use :func:`normalized` to build one from an unnormalized array.
    """

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.dim}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} amplitudes, got shape {np.shape(self.amplitudes)}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has a non-finite amplitude")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a_j|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @classmethod
    def basis(cls, dim: int, k: int) -> "StateVector":
        """Computational basis vector |k> in dimension ``dim``."""
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        return cls(dim, amps)

    @classmethod
    def uniform(cls, dim: int) -> "StateVector":
        """The uniform superposition (1/sqrt(dim)) sum_j |j>."""
        return cls(dim, np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))


def normalized(amplitudes: Sequence[complex]) -> StateVector:
    """Normalize an amplitude array and wrap it as a StateVector."""
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(arr.size, arr / norm)


@dataclass(frozen=True)
class Operator:
    """A square complex matrix. Hermiticity/positivity are checked only by
    the operations that need them."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"operator dimension must be >= 1, got {self.dim}")
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator has a non-finite entry")
        object.__setattr__(self, "entries", _frozen(mat))

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(dim, np.eye(dim, dtype=complex))


def projector(state: StateVector) -> Operator:
    """Rank-one projector |psi><psi|."""
    a = state.amplitudes
    return Operator(state.dim, np.outer(a, a.conj()))


@dataclass(frozen=True)
class Povm:
    """A measurement: a tuple of effects expected to be Hermitian, PSD, and
    summing to the identity (see :func:`validate_povm`)."""

    dim: int
    effects: tuple

    def __post_init__(self):
        effs = tuple(self.effects)
        if not effs:
            raise ValueError("a POVM needs at least one effect")
        for e in effs:
            if not isinstance(e, Operator) or e.dim != self.dim:
                raise ValueError("all effects must be Operators of the POVM dimension")
        object.__setattr__(self, "effects", effs)

    @classmethod
    def basis(cls, dim: int) -> "Povm":
        """Projective measurement onto the computational basis."""
        return cls(dim, tuple(projector(StateVector.basis(dim, k)) for k in range(dim)))

    @property
    def outcome_count(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class Ball:
    """Fidelity ball around a center state: {phi : |<phi|center>| >= 1 - radius}.

    The radius is a fidelity deficit, not a metric distance.
    """

    center: StateVector
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius <= 1.0:
            raise ValueError(f"ball radius must lie in (0, 1], got {self.radius}")

    def contains(self, state: StateVector, slack: float = 1e-12) -> bool:
        """Membership test, with a tiny slack so boundary states count."""
        return abs(inner(state, self.center)) >= 1.0 - self.radius - slack


@dataclass(frozen=True)
class PovmReport:
    """Validation summary for a POVM (see :func:`validate_povm`)."""

    hermiticity_error: float
    min_eigenvalue: float
    completeness_error: float
    passed: bool


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>, conjugating the first argument."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _clamped_born(amps: np.ndarray, mat: np.ndarray) -> float:
    p = float(np.vdot(amps, mat @ amps).real)
    if p < -OP_TOL or p > 1.0 + OP_TOL:
        raise ContractViolation(f"effect gave probability {p!r} outside [0, 1]")
    return min(1.0, max(0.0, p))


def born_prob(state: StateVector, effect: Operator) -> float:
    """Outcome probability <psi|E|psi> for a Hermitian PSD effect.

    The result is clamped to [0, 1] when it strays within ``OP_TOL`` of the
    boundary; straying further raises ContractViolation (the effect was not
    a valid probability operator).
    """
    if state.dim != effect.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs effect {effect.dim}")
    mat = effect.entries
    herm_err = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_err > OP_TOL:
        raise ValueError(f"effect is not Hermitian (max |E - E^dag| = {herm_err:.3e})")
    return _clamped_born(state.amplitudes, mat)


def outcome_table(states: Sequence[StateVector], povm: Povm) -> np.ndarray:
    """Frozen Born-rule table P[k, r] = <states[k]|E_r|states[k]>.

    The POVM is validated once (ContractViolation if :func:`validate_povm`
    fails); each entry then follows :func:`born_prob`'s formula, clamp and
    range check, without repeating the Hermiticity check.
    """
    if any(s.dim != povm.dim for s in states):
        raise ValueError(f"every state must live in the POVM dimension {povm.dim}")
    report = validate_povm(povm)
    if not report.passed:
        raise ContractViolation(
            f"invalid POVM: hermiticity error {report.hermiticity_error:.3e},"
            f" min eigenvalue {report.min_eigenvalue:.3e},"
            f" completeness error {report.completeness_error:.3e}"
        )
    table = np.empty((len(states), povm.outcome_count))
    for k, s in enumerate(states):
        for r, effect in enumerate(povm.effects):
            table[k, r] = _clamped_born(s.amplitudes, effect.entries)
    return _frozen(table)


def tensor_power(state: StateVector, n: int, cap: int = TENSOR_CAP) -> StateVector:
    """``n``-fold Kronecker power of a state.

    Raises ValueError if the resulting amplitude count ``dim**n`` exceeds
    ``cap`` (default 10^6).
    """
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    if state.dim**n > cap:
        raise ValueError(
            f"tensor power dimension {state.dim}**{n} exceeds the cap of {cap} amplitudes"
        )
    return StateVector(state.dim**n, reduce(np.kron, [state.amplitudes] * n))


def gram(states: Sequence[StateVector]) -> np.ndarray:
    """Gram matrix G[k, l] = <states[k]|states[l]>. Hermitian PSD."""
    if not states:
        raise ValueError("gram of an empty family")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("all states must share one dimension")
    a = np.array([s.amplitudes for s in states])
    return a.conj() @ a.T


def _inv_sqrt(mat: np.ndarray, floor: float) -> np.ndarray:
    """Hermitian inverse square root; raises if an eigenvalue sits at/below floor."""
    w, v = np.linalg.eigh(mat)
    if float(w.min()) <= floor:
        raise ValueError(
            f"family is numerically rank-deficient (smallest Gram eigenvalue {w.min():.3e})"
        )
    return (v * (w**-0.5)) @ v.conj().T


def unitary_from_correspondence(
    src: Sequence[StateVector], dst: Sequence[StateVector]
) -> Operator:
    """Isometry V with V src[k] = dst[k], given matching Gram matrices.

    Both families are orthonormalized symmetrically (each through the inverse
    square root of its own Gram matrix), which pairs the two frames
    canonically; V maps the source frame onto the destination frame. As a
    matrix, V is a partial isometry: V*V projects onto span(src) and VV* onto
    span(dst).

    Preconditions: equal ambient dimensions, Gram matrices equal within
    ``OP_TOL``, and both families linearly independent. The construction is
    verified to reproduce dst within ``RESIDUAL_TOL`` before returning.
    """
    if len(src) != len(dst) or not src:
        raise ValueError("src and dst must be nonempty families of equal length")
    if src[0].dim != dst[0].dim:
        raise ValueError(
            f"ambient dimensions differ: src {src[0].dim} vs dst {dst[0].dim}"
        )
    g_src = gram(src)
    g_dst = gram(dst)
    mismatch = float(np.max(np.abs(g_src - g_dst)))
    if mismatch > OP_TOL:
        raise ValueError(
            f"Gram matrices differ by {mismatch:.3e}; no inner-product-preserving map exists"
        )
    s_mat = np.array([s.amplitudes for s in src]).T  # (D, d) columns
    d_mat = np.array([s.amplitudes for s in dst]).T
    f_src = s_mat @ _inv_sqrt(g_src, OP_TOL)
    f_dst = d_mat @ _inv_sqrt(g_dst, OP_TOL)
    v = f_dst @ f_src.conj().T
    worst = max(
        float(np.linalg.norm(v @ s.amplitudes - t.amplitudes)) for s, t in zip(src, dst)
    )
    if worst > RESIDUAL_TOL:
        raise ContractViolation(
            f"constructed isometry misses a target by {worst:.3e} (> {RESIDUAL_TOL})"
        )
    return Operator(src[0].dim, v)


def validate_povm(p: Povm) -> PovmReport:
    """Report Hermiticity, positivity, and completeness of a POVM.

    Never raises; ``passed`` reflects the OP_TOL thresholds.
    """
    herm = 0.0
    min_eig = np.inf
    total = np.zeros((p.dim, p.dim), dtype=complex)
    for e in p.effects:
        mat = e.entries
        herm = max(herm, float(np.max(np.abs(mat - mat.conj().T))))
        sym = 0.5 * (mat + mat.conj().T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sym).min()))
        total += mat
    comp = float(np.max(np.abs(total - np.eye(p.dim))))
    passed = herm <= OP_TOL and min_eig >= -OP_TOL and comp <= OP_TOL
    return PovmReport(herm, float(min_eig), comp, passed)


def sample_state_in_ball(ball: Ball, seed) -> StateVector:
    """Draw one state from a fidelity ball, reproducibly.

    Recipe (fixed so seeds mean the same thing everywhere): draw a
    Haar-random direction orthogonal to the center, draw the fidelity
    uniformly on [1 - radius, 1], and combine the two on the geodesic
    f * center + sqrt(1 - f^2) * direction. The overlap with the center is
    real and equals f by construction. Not uniform over the ball; uniform
    over the fidelity coordinate.

    ``seed`` may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    center = ball.center.amplitudes
    dim = ball.center.dim
    if dim == 1:
        return StateVector(1, center.copy())
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        z -= np.vdot(center, z) * center
        norm = float(np.linalg.norm(z))
        if norm > 1e-12:
            break
    direction = z / norm
    f = float(rng.uniform(1.0 - ball.radius, 1.0))
    amps = f * center + np.sqrt(max(0.0, 1.0 - f * f)) * direction
    return StateVector(dim, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# JSON schema: {"dim": int, "re": [...], "im": [...]} (row-major for matrices)
# ---------------------------------------------------------------------------


def state_to_json(state: StateVector) -> dict:
    return {
        "dim": state.dim,
        "re": state.amplitudes.real.tolist(),
        "im": state.amplitudes.imag.tolist(),
    }


def _require(obj: dict, keys: tuple, what: str) -> None:
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} JSON: missing field {key!r}")


def state_from_json(obj: dict) -> StateVector:
    _require(obj, ("dim", "re", "im"), "state")
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim,) or im.shape != (dim,):
        raise ValueError(f"state JSON: expected {dim} re/im entries")
    return StateVector(dim, re + 1j * im)


def operator_to_json(op: Operator) -> dict:
    flat = op.entries.reshape(-1)
    return {"dim": op.dim, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def operator_from_json(obj: dict) -> Operator:
    _require(obj, ("dim", "re", "im"), "operator")
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim * dim,) or im.shape != (dim * dim,):
        raise ValueError(f"operator JSON: expected {dim * dim} re/im entries (row-major)")
    return Operator(dim, (re + 1j * im).reshape(dim, dim))


def povm_to_json(p: Povm) -> dict:
    return {"dim": p.dim, "effects": [operator_to_json(e) for e in p.effects]}


def povm_from_json(obj: dict) -> Povm:
    _require(obj, ("dim", "effects"), "povm")
    dim = int(obj["dim"])
    return Povm(dim, tuple(operator_from_json(e) for e in obj["effects"]))
