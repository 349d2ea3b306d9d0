"""Linear-algebra substrate: pure states, effects, POVMs, tensor powers,
Gram matrices, and isometries built from state correspondences.

States and operators are dense numpy arrays. A POVM is either dense (one
m x D x D stack of effects, the form every external input takes) or factored
(:meth:`Povm.completion`: m vectors plus an even split of the leftover
identity), which is how the package's own exclusion measurements are
built; on a factored POVM, validation, Born tables and traces never form a
D x D matrix. Values are immutable after construction (their arrays are
frozen), every operation is a pure function, and all randomness flows
through explicit seeds, so identical calls give identical results.

Tolerances follow a three-tier convention used across the package:

* ``NORM_TOL``     (1e-12) for state normalization,
* ``OP_TOL``       (1e-10) for operator identities (Hermiticity, completeness),
* ``RESIDUAL_TOL`` (1e-9)  for residuals of numerically constructed objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
OP_TOL = 1e-10
RESIDUAL_TOL = 1e-9

#: hard cap on the amplitude count of tensor powers. Every array the n-copy
#: construction keeps is O(d * D) (states, frames, the factored measurement),
#: so the cap is a promise a desk machine keeps: thm2 at D = 3**12 builds and
#: runs its protocol in about 0.9 s at 280 MB peak RSS on 2 cores.
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
        with np.errstate(over="ignore"):  # an overflowing norm fails the check below
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


def _amplitudes(states: Sequence[StateVector]) -> np.ndarray:
    """The k x D matrix whose rows are the amplitudes of a nonempty family of
    states sharing one dimension; ValueError for any other family."""
    if not states:
        raise ValueError("need at least one state")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError(f"states live in mixed dimensions {sorted(dims)}")
    return np.array([s.amplitudes for s in states])


def _at_fidelity(center: np.ndarray, direction: np.ndarray, f: float) -> StateVector:
    """The state f * center + sqrt(1 - f^2) * direction: on the geodesic from
    a unit ``center`` towards a unit ``direction`` orthogonal to it, at
    fidelity f from the center."""
    return normalized(f * center + np.sqrt(max(0.0, 1.0 - f * f)) * direction)


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


class Povm:
    """A measurement on C^dim, in one of two forms.

    * Dense, ``Povm(dim, effects)``: effect Operators, expected to be
      Hermitian, PSD and summing to the identity, held as one m x D x D
      stack. Every measurement read from outside the program takes this form.
    * Factored, :meth:`completion`: a D x m array U standing for the
      effects |u_r><u_r| + (I - UU^dag)/m, which sum to the identity by
      construction. :func:`validate_povm`, :func:`outcome_table` and
      :func:`effect_traces` work on U and never form a D x D matrix;
      :attr:`effects` builds the dense stack on first read.

    Values are immutable after construction.
    """

    def __init__(self, dim: int, effects: Sequence[Operator]):
        effs = tuple(effects)
        if not effs:
            raise ValueError("a POVM needs at least one effect")
        if any(not isinstance(e, Operator) or e.dim != dim for e in effs):
            raise ValueError("all effects must be Operators of the POVM dimension")
        self._dim, self._vectors, self._effects = dim, None, None
        self._stack = _frozen(np.array([e.entries for e in effs]))

    @classmethod
    def completion(cls, vectors) -> "Povm":
        """Factored POVM with effects |u_r><u_r| + (I - UU^dag)/m for the
        columns u_r of the D x m array ``vectors`` (m >= 1).

        When m >= D the complement term is left out: such a U gives a valid
        POVM only if UU^dag = I (checked here when m > D), and then the
        complement is zero.
        """
        u = np.array(vectors, dtype=complex)
        if u.ndim != 2 or u.shape[1] < 1:
            raise ValueError(f"completion needs a D x m array, m >= 1; got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("completion vectors have a non-finite entry")
        if u.shape[1] > len(u) and np.abs(u @ u.conj().T - np.eye(len(u))).max() > OP_TOL:
            raise ValueError(f"completion of {u.shape[1]} > D vectors needs UU^dag = I")
        povm = cls.__new__(cls)
        povm._dim, povm._vectors, povm._effects, povm._stack = u.shape[0], _frozen(u), None, None
        return povm

    @classmethod
    def basis(cls, dim: int) -> "Povm":
        """Projective measurement onto the computational basis."""
        return cls.completion(np.eye(dim))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def vectors(self):
        """The D x m array U of a factored POVM; None for a dense one."""
        return self._vectors

    @property
    def effects(self) -> tuple:
        """The effects as Operators viewing the dense stack, which a factored
        POVM builds on first read; both are kept after it."""
        if self._effects is None:
            if self._stack is None:
                u = self._vectors
                dim, m = u.shape
                stack = u.T[:, :, None] * u.T.conj()[:, None, :]
                if dim > m:
                    stack += (np.eye(dim) - u @ u.conj().T) / m
                self._stack = _frozen(stack)
            self._effects = tuple(map(partial(Operator, self._dim), self._stack))
        return self._effects

    @property
    def outcome_count(self) -> int:
        return len(self._stack) if self._vectors is None else self._vectors.shape[1]


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

    def contains(self, state: StateVector) -> bool:
        """Membership test, with a slack of 1e-12 so boundary states count."""
        return abs(inner(state, self.center)) >= 1.0 - self.radius - 1e-12


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


def _probabilities(table: np.ndarray) -> np.ndarray:
    """A Born table clamped to [0, 1], frozen; an entry straying more than
    ``OP_TOL`` outside raises ContractViolation."""
    stray = (table < -OP_TOL) | (table > 1.0 + OP_TOL)
    if np.any(stray):
        raise ContractViolation(f"effect gave probability {table[stray].item(0)!r} outside [0, 1]")
    return _frozen(np.clip(table, 0.0, 1.0))


def _dense_table(amps: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """<psi_k|E_r|psi_k> for the rows psi_k of ``amps`` and a stack of effects."""
    return _probabilities(np.einsum("kd,rde,ke->kr", amps.conj(), stack, amps).real)


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
    return float(_dense_table(state.amplitudes[None], mat[None])[0, 0])


def _squared_norms(mat: np.ndarray) -> np.ndarray:
    return mat.real**2 + mat.imag**2


def outcome_table(states: Sequence[StateVector], povm: Povm) -> np.ndarray:
    """Frozen Born-rule table P[k, r] = <states[k]|E_r|states[k]>.

    The POVM is validated once (ContractViolation if :func:`validate_povm`
    fails); the table then gets :func:`born_prob`'s kernel (on a dense POVM),
    clamp and range check, without repeating the Hermiticity check. A factored
    POVM reads |<u_r|psi>|^2 + (1 - sum_m |<u_m|psi>|^2)/m off the m overlaps.
    """
    amps = _amplitudes(states)
    if amps.shape[1] != povm.dim:
        raise ValueError(f"every state must live in the POVM dimension {povm.dim}")
    report = validate_povm(povm)
    if not report.passed:
        raise ContractViolation(
            f"invalid POVM: hermiticity error {report.hermiticity_error:.3e},"
            f" min eigenvalue {report.min_eigenvalue:.3e},"
            f" completeness error {report.completeness_error:.3e}"
        )
    u = povm.vectors
    if u is None:
        return _dense_table(amps, povm._stack)
    table = _squared_norms(amps @ u.conj())
    if povm.dim > u.shape[1]:
        table += (1.0 - table.sum(axis=1, keepdims=True)) / u.shape[1]
    return _probabilities(table)


def effect_traces(povm: Povm) -> np.ndarray:
    """tr(E_r) for every effect: |u_r|^2 + (D - sum_m |u_m|^2)/m when factored."""
    u = povm.vectors
    if u is None:
        return np.trace(povm._stack, axis1=1, axis2=2).real
    traces = _squared_norms(u).sum(axis=0)
    if povm.dim > u.shape[1]:
        traces += (povm.dim - traces.sum()) / u.shape[1]
    return traces


def tensor_power(state: StateVector, n: int) -> StateVector:
    """``n``-fold Kronecker power of a state.

    Raises ValueError if the resulting amplitude count ``dim**n`` exceeds
    ``TENSOR_CAP``.
    """
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    if state.dim**n > TENSOR_CAP:
        raise ValueError(
            f"tensor power dimension {state.dim}**{n} exceeds the cap of {TENSOR_CAP} amplitudes"
        )
    return StateVector(state.dim**n, reduce(np.kron, [state.amplitudes] * n))


def gram(states: Sequence[StateVector]) -> np.ndarray:
    """Gram matrix G[k, l] = <states[k]|states[l]>. Hermitian PSD."""
    a = _amplitudes(states)
    return a.conj() @ a.T


def _inv_sqrt(mat: np.ndarray, floor: float) -> np.ndarray:
    """Hermitian inverse square root; raises if an eigenvalue sits at/below floor."""
    w, v = np.linalg.eigh(mat)
    if float(w.min()) <= floor:
        raise ValueError(
            f"family is numerically rank-deficient (smallest Gram eigenvalue {w.min():.3e})"
        )
    return (v * (w**-0.5)) @ v.conj().T


def symmetric_frames(src: Sequence[StateVector], dst: Sequence[StateVector]) -> tuple:
    """Orthonormal frames (f_src, f_dst) of two families with equal Gram
    matrices, as column arrays.

    Each family is orthonormalized symmetrically (through the inverse square
    root of its own Gram matrix), which pairs the two frames canonically:
    f_src^dag src[k] = f_dst^dag dst[k] for every k, checked within
    ``RESIDUAL_TOL`` (ContractViolation otherwise). The families may live
    in different ambient dimensions. Preconditions: Gram matrices equal
    within ``OP_TOL`` and both families linearly independent.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must be families of equal length")
    g_src, g_dst = gram(src), gram(dst)
    mismatch = float(np.max(np.abs(g_src - g_dst)))
    if mismatch > OP_TOL:
        raise ValueError(
            f"Gram matrices differ by {mismatch:.3e}; no inner-product-preserving map exists"
        )
    s_mat, d_mat = _amplitudes(src).T, _amplitudes(dst).T  # (D, d) columns
    f_src, f_dst = s_mat @ _inv_sqrt(g_src, OP_TOL), d_mat @ _inv_sqrt(g_dst, OP_TOL)
    miss = f_src.conj().T @ s_mat - f_dst.conj().T @ d_mat
    worst = float(np.linalg.norm(miss, axis=0).max())
    if worst > RESIDUAL_TOL:
        raise ContractViolation(
            f"constructed isometry misses a target by {worst:.3e} (> {RESIDUAL_TOL})"
        )
    return f_src, f_dst


def unitary_from_correspondence(
    src: Sequence[StateVector], dst: Sequence[StateVector]
) -> Operator:
    """Isometry V with V src[k] = dst[k], given matching Gram matrices.

    V = f_dst f_src^dag maps the source frame of :func:`symmetric_frames`
    onto the destination frame. As a matrix, V is a partial isometry: V*V
    projects onto span(src) and VV* onto span(dst).

    Preconditions: equal ambient dimensions, Gram matrices equal within
    ``OP_TOL``, and both families linearly independent.
    """
    if src and dst and src[0].dim != dst[0].dim:
        raise ValueError(
            f"ambient dimensions differ: src {src[0].dim} vs dst {dst[0].dim}"
        )
    f_src, f_dst = symmetric_frames(src, dst)
    return Operator(src[0].dim, f_dst @ f_src.conj().T)


def validate_povm(p: Povm) -> PovmReport:
    """Report Hermiticity, positivity, and completeness of a POVM.

    Never raises; ``passed`` reflects the OP_TOL thresholds. A factored POVM
    is checked inside span(U) at O(D m^2 + m^4) cost, and gets the numbers
    the dense check of its effects would give, up to rounding.
    """
    if p.vectors is None:
        herm, min_eig, comp = _stack_checks(p._stack)
    else:
        herm, min_eig, comp = _completion_checks(p.vectors)
    passed = herm <= OP_TOL and min_eig >= -OP_TOL and comp <= OP_TOL
    return PovmReport(herm, min_eig, comp, passed)


def _stack_checks(mats: np.ndarray) -> tuple:
    """(Hermiticity error, min eigenvalue, completeness error) of an m x n x n
    stack of effects. Overflow near the top of float range fails the check
    quietly; the Hermitian parts add halves, so eigvalsh sees finite entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = mats.conj().transpose(0, 2, 1)
        herm = float(np.max(np.abs(mats - adjoint)))
        min_eig = float(np.linalg.eigvalsh(0.5 * mats + 0.5 * adjoint).min())
        comp = float(np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[1]))))
    return herm, min_eig, comp


def _completion_checks(u: np.ndarray) -> tuple:
    """(Hermiticity error, min eigenvalue, completeness error) of
    ``Povm.completion(u)``."""
    dim, m = u.shape
    if dim <= m:
        # effects |u_r><u_r| are rank one: eigenvalues |u_r|^2 and zeros
        min_eig = float(_squared_norms(u).sum(axis=0).min()) if dim == 1 else 0.0
        return 0.0, min_eig, float(np.max(np.abs(u @ u.conj().T - np.eye(dim))))
    # with u = q r and orthonormal columns q, effect r acts on span(q) as the
    # m x m matrix r_r r_r^dag + (I - r r^dag)/m, and as I/m on the rest
    _, r = np.linalg.qr(u)
    mats = r.T[:, :, None] * r.T.conj()[:, None, :] + (np.eye(m) - r @ r.conj().T) / m
    herm, min_eig, comp = _stack_checks(mats)
    return herm, min(min_eig, 1.0 / m), comp


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
    rng = _rng(seed)
    center = ball.center.amplitudes
    if ball.center.dim == 1:
        return StateVector(1, center.copy())
    direction = _orthogonal_direction(rng, center)
    return _at_fidelity(center, direction, float(rng.uniform(1.0 - ball.radius, 1.0)))


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _orthogonal_direction(rng: np.random.Generator, unit: np.ndarray) -> np.ndarray:
    """Haar-random unit vector orthogonal to ``unit`` (dimension >= 2):
    a complex Gaussian draw with its ``unit`` component removed, drawn
    again in the measure-zero case that nothing is left."""
    while True:
        z = rng.standard_normal(unit.size) + 1j * rng.standard_normal(unit.size)
        z -= np.vdot(unit, z) * unit
        norm = float(np.linalg.norm(z))
        if norm > 1e-12:
            return z / norm


def haar_state(dim: int, seed) -> StateVector:
    """Haar-random pure state: a complex Gaussian vector (real parts drawn
    first, then imaginary parts), normalized. ``seed`` may be an int or a
    numpy Generator."""
    rng = _rng(seed)
    return normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def pair_at_fidelity(dim: int, fidelity: float, seed) -> tuple:
    """A Haar-random state and a partner at exactly |<first|second>| = fidelity:
    fidelity * first + sqrt(1 - fidelity^2) * (a Haar direction orthogonal
    to first). ``seed`` may be an int or a numpy Generator."""
    if dim < 2:
        raise ValueError(f"a pair at a chosen fidelity needs dimension >= 2, got {dim}")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    rng = _rng(seed)
    first = haar_state(dim, rng)
    direction = _orthogonal_direction(rng, first.amplitudes)
    return first, _at_fidelity(first.amplitudes, direction, fidelity)


# ---------------------------------------------------------------------------
# JSON schema: {"dim": int, "re": [...], "im": [...]} (row-major for matrices)
# ---------------------------------------------------------------------------


def _complex_json(dim: int, array: np.ndarray) -> dict:
    """{"dim", "re", "im"} of a complex array, flattened row-major."""
    flat = array.reshape(-1)
    return {"dim": dim, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def state_to_json(state: StateVector) -> dict:
    return _complex_json(state.dim, state.amplitudes)


def _require(obj: dict, keys: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON: expected an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} JSON: missing field {key!r}")


_floats = partial(np.asarray, dtype=float)


def _field(obj: dict, key: str, what: str, convert=int):
    """convert(obj[key]), with a wrong type (a list or an object where a
    number belongs) or an overflowing number (1e400) raised as ValueError."""
    try:
        return convert(obj[key])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} JSON: {key}: {exc}") from None


def _numeric_fields(obj: dict, what: str, count) -> tuple:
    """(dim, entries) of a state or operator object: an int and the count(dim)
    complex entries, row-major for a matrix."""
    _require(obj, ("dim", "re", "im"), what)
    dim = _field(obj, "dim", what)
    re, im = _field(obj, "re", what, _floats), _field(obj, "im", what, _floats)
    if re.shape != (count(dim),) or im.shape != (count(dim),):
        raise ValueError(f"{what} JSON: expected {count(dim)} re/im entries")
    with np.errstate(invalid="ignore"):  # 1j * inf; the constructors reject non-finite entries
        return dim, re + 1j * im


def state_from_json(obj: dict) -> StateVector:
    return StateVector(*_numeric_fields(obj, "state", lambda dim: dim))


def operator_to_json(op: Operator) -> dict:
    return _complex_json(op.dim, op.entries)


def operator_from_json(obj: dict) -> Operator:
    dim, entries = _numeric_fields(obj, "operator", lambda dim: dim * dim)
    return Operator(dim, entries.reshape(dim, dim))


def povm_to_json(p: Povm) -> dict:
    return {"dim": p.dim, "effects": [operator_to_json(e) for e in p.effects]}


def povm_from_json(obj: dict) -> Povm:
    _require(obj, ("dim", "effects"), "povm")
    if not isinstance(obj["effects"], list):
        raise ValueError("povm JSON: effects must be a list")
    return Povm(_field(obj, "dim", "povm"), tuple(operator_from_json(e) for e in obj["effects"]))
