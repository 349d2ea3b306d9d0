"""Linear-algebra substrate: pure states, effects, POVMs, tensor powers,
Gram matrices, and isometries built from state correspondences.

States and operators are dense numpy arrays. Every POVM is one D x m x c
array of columns, c per outcome, checked once when it is made: effects
read from outside are split into columns by one eigendecomposition, and
:meth:`Povm.completion` of an isometry (c = 1) is how the package builds its
own exclusion measurements. So a Povm is valid by construction, and its
Born tables and traces are read off the columns by one path that never
forms a D x D matrix. Values are immutable after construction (their arrays
are frozen), every operation is a pure function, and all randomness flows
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

#: hard cap on the amplitude count D of one tensor power. The dense n-copy
#: ensemble holds d * D amplitudes; the CLI runs it in the span of its states.
TENSOR_CAP = 10**6


class ContractViolation(RuntimeError):
    """A numerical guarantee failed beyond its documented tolerance."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _immutable(arr: np.ndarray) -> np.ndarray:
    """What a value keeps of an array: the array if read-only, else a frozen copy."""
    return arr if not arr.flags.writeable else _frozen(arr.copy())


def _integer(name: str, value, least: int) -> int:
    """value as a Python int, the one rule for every count and size, a file's
    too; ValueError, naming it and quoting at most 40 characters of the value,
    unless it is an int or a numpy integer (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r:.40}")
    return int(value)


@dataclass(frozen=True)
class StateVector:
    """A pure state: unit vector of complex amplitudes. ValueError unless
    ``dim`` is an integer >= 1. Normalization is enforced at construction
    (``NORM_TOL`` on the squared norm); use :func:`normalized` to build one
    from an unnormalized array.
    """

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("state dimension", self.dim, 1))
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} amplitudes, got shape {np.shape(self.amplitudes)}"
            )
        _check_unit_rows(amps)
        object.__setattr__(self, "amplitudes", _immutable(amps))

    @classmethod
    def basis(cls, dim: int, k: int) -> "StateVector":
        """Computational basis vector |k> in dimension ``dim``."""
        dim, k = _integer("state dimension", dim, 1), _integer("basis index", k, 0)
        if k >= dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[k] = 1.0
        return cls(dim, _frozen(amps))

    @classmethod
    def uniform(cls, dim: int) -> "StateVector":
        """The uniform superposition (1/sqrt(dim)) sum_j |j>."""
        dim = _integer("state dimension", dim, 1)
        return cls(dim, _frozen(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)))


def _check_unit_rows(amps: np.ndarray) -> None:
    """StateVector's rule for one state or the rows of a family: ValueError unless
    every amplitude is finite and every squared norm is within ``NORM_TOL`` of 1."""
    with np.errstate(over="ignore"):  # an overflowing norm fails the check below
        norm_sq = _squared_norms(amps).sum(axis=-1, keepdims=True)
    off = norm_sq[~(np.abs(norm_sq - 1.0) <= NORM_TOL)]  # a non-finite amplitude's is inf or NaN
    if off.size:
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has a non-finite amplitude")
        raise ValueError(f"state is not normalized: sum |a_j|^2 = {float(off[0])!r}")


def _boundary_fidelity(d: int) -> float:
    """f*(d) = sqrt((d-1)/d), the fidelity of theorem1's states to their center."""
    return float(np.sqrt((d - 1) / d))


def normalized(amplitudes: Sequence[complex]) -> StateVector:
    """Normalize an amplitude array and wrap it as a StateVector."""
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(arr.size, _frozen(arr / norm))


def _amplitudes(states: Sequence[StateVector]) -> np.ndarray:
    """The k x D matrix whose rows are the amplitudes of a nonempty family of
    states sharing one dimension; ValueError for any other family."""
    if not states:
        raise ValueError("need at least one state")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise ValueError(f"states live in mixed dimensions {sorted(dims)}")
    return np.array([s.amplitudes for s in states])


def _rows_as_states(rows: np.ndarray) -> tuple:
    """The rows of a fresh k x D matrix as StateVectors, the inverse of
    :func:`_amplitudes`. The matrix is checked once by StateVector's rule,
    :func:`_check_unit_rows`, then frozen, and each state holds a read-only
    view of its row, checked no further."""
    rows = np.asarray(rows, dtype=complex)
    _check_unit_rows(rows)
    states = [StateVector.__new__(StateVector) for _ in range(len(rows))]
    for state, row in zip(states, _frozen(rows)):
        state.__dict__.update(dim=rows.shape[1], amplitudes=row)
    return tuple(states)


def _at_fidelity(center: np.ndarray, direction: np.ndarray, f: float) -> StateVector:
    """The state f * center + sqrt(1 - f^2) * direction: on the geodesic from
    a unit ``center`` towards a unit ``direction`` orthogonal to it, at
    fidelity f from the center."""
    return normalized(f * center + np.sqrt(max(0.0, 1.0 - f * f)) * direction)


def _equal_overlap_family(center: StateVector, sin2: float) -> list:
    """The d states f z + sqrt(sin2) R w_k at fidelity f = sqrt(1 - sin2) from
    ``center`` z, with Gram matrix (1 - c)I + cJ, c = f^2 - sin2/(d - 1), none
    at d = 1. w_k = (u/sqrt(d) - e_k)/f*, f* = :func:`_boundary_fidelity` (d),
    are theorem1's directions from the uniform state u. z's phase is turned so
    r = <u|z> >= 0; R, the rotation in the plane of u and z that takes u to z,
    maps each w_k to w_k - (t^dag w_k)(t/(1 + r) + u), t = z - r u, dividing by
    nothing below 1. sin2 = 1 - f^2 keeps the digits of 1 - c that f loses near f = 1."""
    d = center.dim
    if d < 2:
        return []
    u = StateVector.uniform(d).amplitudes
    z = center.amplitudes * np.exp(1j * np.angle(np.vdot(center.amplitudes, u)))
    r = float(np.vdot(u, z).real)
    t = z - r * u
    w = (1.0 / d - np.eye(d)) / _boundary_fidelity(d)  # row k is w_k
    directions = w - np.outer(w @ t.conj(), t / (1.0 + r) + u)  # row k is R w_k
    return list(map(normalized, np.sqrt(1.0 - sin2) * z + np.sqrt(sin2) * directions))


def _exclusion_vectors(rows: np.ndarray, c: float) -> np.ndarray:
    """Orthonormal columns m_k = mean/sqrt(1 + (d-1)c) - (psi_k - mean)/sqrt(1 - c)
    for the rows psi_k of a family with Gram matrix (1 - c)I + cJ. Once
    c >= (d-2)/(d-1) they attain the least exclusion value E; at that level
    E = 0 and m_k is the preimage of |k> under the isometry onto theorem1's states."""
    d, mean = len(rows), rows.mean(axis=0)
    return (mean / np.sqrt(1.0 + (d - 1) * c) - (rows - mean) / np.sqrt(1.0 - c)).T


@dataclass(frozen=True)
class Operator:
    """A square complex matrix. Hermiticity/positivity are checked only by
    the operations that need them. ValueError unless ``dim`` is an integer >= 1."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer("operator dimension", self.dim, 1))
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator has a non-finite entry")
        object.__setattr__(self, "entries", _immutable(mat))


class Povm:
    """A measurement on C^dim, held as a D x m x c array W of columns: effect r
    is sum_j |w_rj><w_rj|, plus (I - WW^dag)/m when mc < D. It is made one
    of two ways, and each checks it once, so every Povm is valid.

    * ``Povm(dim, effects)``: effect Operators, the form every measurement
      read from outside the program takes. They must be Hermitian, PSD and
      sum to the identity within ``OP_TOL`` (ValueError "invalid POVM"
      otherwise); one batched eigh then splits each into D columns
      sqrt(max(lambda, 0)) v, so a zero effect has zero columns.
    * :meth:`completion`: a D x m array U, one column per outcome, checked
      by one Gram product: UU^dag = I when m >= D, U^dag U = I when m < D.

    :func:`validate_povm` returns the report kept from that check, and
    :func:`outcome_table` and :func:`effect_traces` read the columns, so
    none forms a D x D matrix. Immutable after construction. ValueError
    unless ``dim`` is an integer >= 1.
    """

    def __init__(self, dim: int, effects: Sequence[Operator]):
        dim = _integer("POVM dimension", dim, 1)
        effs = tuple(effects)
        if not effs:
            raise ValueError("a POVM needs at least one effect")
        if any(not isinstance(e, Operator) or e.dim != dim for e in effs):
            raise ValueError("all effects must be Operators of the POVM dimension")
        stack = np.array([e.entries for e in effs])
        # overflow near the top of float range fails the check quietly; the
        # Hermitian parts add halves, so eigh sees finite entries
        with np.errstate(over="ignore", invalid="ignore"):
            adjoint = stack.conj().transpose(0, 2, 1)
            herm = float(np.max(np.abs(stack - adjoint)))  # keeps a NaN
            lam, vecs = np.linalg.eigh(0.5 * stack + 0.5 * adjoint)
            report = _report(herm, float(lam.min()), _identity_gap(stack.sum(axis=0)))
        if not report.passed:
            raise ValueError(
                f"invalid POVM: hermiticity error {report.hermiticity_error:.3e},"
                f" min eigenvalue {report.min_eigenvalue:.3e},"
                f" completeness error {report.completeness_error:.3e}"
            )
        columns = vecs * np.sqrt(np.maximum(lam, 0.0))[:, None, :]  # [r, :, j] is w_rj
        self._dim, self._outcomes, self._effects, self._report = dim, len(effs), effs, report
        self._vectors = _frozen(columns.transpose(1, 0, 2).reshape(dim, -1))

    @classmethod
    def completion(cls, vectors) -> "Povm":
        """The POVM with effects |u_r><u_r| + (I - UU^dag)/m for the columns
        u_r of the D x m array ``vectors`` (D, m >= 1). One Gram product
        checks it, within ``OP_TOL`` (ValueError otherwise): UU^dag = I when
        m >= D, which is the effects summing to the identity (the complement
        is zero and left out), and U^dag U = I when m < D, which keeps the
        complement PSD. Its report is read off in closed form: Hermiticity
        error 0.0, completeness error the residual of UU^dag = I (0.0 for
        m < D, whose complement closes the sum), min eigenvalue min_r |u_r|^2
        at D = 1, 1.0 at m = 1 < D (the one effect is I), else 0.0.
        """
        u = np.array(vectors, dtype=complex)
        if u.ndim != 2 or 0 in u.shape:
            raise ValueError(f"completion needs a D x m array, D, m >= 1; got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("completion vectors have a non-finite entry")
        dim, m = u.shape
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
            gap = _identity_gap(u @ u.conj().T if m >= dim else u.conj().T @ u)
        if not gap <= OP_TOL:  # a NaN fails too
            raise ValueError(f"completion needs an isometry; this {dim} x {m} U is {gap:.3e}"
                             " from one")
        min_eig = float(_squared_norms(u).min()) if dim == 1 else float(m == 1)
        povm = cls.__new__(cls)
        povm._dim, povm._outcomes, povm._effects = dim, m, None
        povm._vectors, povm._report = _frozen(u), _report(0.0, min_eig, gap if m >= dim else 0.0)
        return povm

    @classmethod
    def basis(cls, dim: int) -> "Povm":
        """Projective measurement onto the computational basis."""
        return cls.completion(np.eye(_integer("POVM dimension", dim, 1)))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def vectors(self) -> np.ndarray:
        """W as a frozen D x mc array: outcome r owns columns rc .. rc + c - 1.
        For a completion it is U."""
        return self._vectors

    @property
    def effects(self) -> tuple:
        """The effects as Operators: those it was given, or, for a completion,
        views of one dense stack built on first read and kept after it."""
        if self._effects is None:
            u = self._vectors
            dim, m = u.shape
            stack = u.T[:, :, None] * u.T.conj()[:, None, :]
            if dim > m:
                stack += (np.eye(dim) - u @ u.conj().T) / m
            self._effects = tuple(map(partial(Operator, self._dim), _frozen(stack)))
        return self._effects

    @property
    def outcome_count(self) -> int:
        return self._outcomes


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


@dataclass(frozen=True)
class PovmReport:
    """Validation summary for a POVM (see :func:`validate_povm`)."""

    hermiticity_error: float
    min_eigenvalue: float
    completeness_error: float
    passed: bool


def _report(herm: float, min_eig: float, comp: float) -> PovmReport:
    """The report of three checks; ``passed`` holds them to ``OP_TOL`` (NaN fails)."""
    return PovmReport(herm, min_eig, comp, herm <= OP_TOL and min_eig >= -OP_TOL and comp <= OP_TOL)


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


def _squared_norms(mat: np.ndarray) -> np.ndarray:
    return mat.real**2 + mat.imag**2


def _per_outcome(values: np.ndarray, povm: Povm, total: float) -> np.ndarray:
    """Values over the columns (last axis) summed to the m outcomes, plus the
    complement's even share of what they leave of ``total``, if it has one."""
    m = povm.outcome_count
    sums = values.reshape(*values.shape[:-1], m, -1).sum(axis=-1)
    if povm.dim > povm.vectors.shape[1]:
        sums += (total - sums.sum(axis=-1, keepdims=True)) / m
    return sums


def outcome_table(states: Sequence[StateVector], povm: Povm) -> np.ndarray:
    """Frozen Born-rule table P[k, r] = <states[k]|E_r|states[k]>: the
    |<w_rj|psi_k>|^2 summed over outcome r's columns, plus the complement's
    share (1 - sum_r)/m. Every entry is clamped to [0, 1], and one straying
    more than ``OP_TOL`` outside raises ContractViolation.
    """
    amps = _amplitudes(states)
    if amps.shape[1] != povm.dim:
        raise ValueError(f"every state must live in the POVM dimension {povm.dim}")
    return _probabilities(_per_outcome(_squared_norms(amps @ povm.vectors.conj()), povm, 1.0))


def effect_traces(povm: Povm) -> np.ndarray:
    """tr(E_r) for every effect: |w_rj|^2 summed over outcome r's columns,
    plus the complement's share (D - sum_r)/m."""
    return _per_outcome(_squared_norms(povm.vectors).sum(axis=0), povm, povm.dim)


def _power_at_most(base: int, n: int, cap: int) -> bool:
    """base**n <= cap, without computing base**n once n >= cap.bit_length() rules it out."""
    return base <= 1 or (n < cap.bit_length() and base**n <= cap)


def tensor_power(state: StateVector, n: int) -> StateVector:
    """``n``-fold Kronecker power of a state.

    ValueError unless n is an integer >= 1, and if the resulting amplitude
    count ``dim**n`` exceeds ``TENSOR_CAP``.
    """
    n = _integer("tensor power n", n, 1)
    if not _power_at_most(state.dim, n, TENSOR_CAP):
        raise ValueError(
            f"tensor power dimension {state.dim}**{n} exceeds the cap of {TENSOR_CAP} amplitudes"
        )
    if state.dim == 1:
        a = state.amplitudes  # a phase: drop its modulus so a**n cannot underflow
        return normalized((a / np.abs(a)) ** n)
    return StateVector(state.dim**n, _frozen(reduce(np.kron, [state.amplitudes] * n)))


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


def unitary_from_correspondence(
    src: Sequence[StateVector], dst: Sequence[StateVector]
) -> Operator:
    """Isometry V with V src[k] = dst[k], given matching Gram matrices.

    Each family is orthonormalized symmetrically (Loewdin frames f = S G^-1/2
    through the inverse square root of its own Gram matrix), which pairs the
    two frames canonically: f_src^dag src[k] = f_dst^dag dst[k] for every k,
    checked within ``RESIDUAL_TOL`` (ContractViolation otherwise). Then
    V = f_dst f_src^dag is a partial isometry: V*V projects onto span(src)
    and VV* onto span(dst).

    Preconditions: equal ambient dimensions, Gram matrices equal within
    ``OP_TOL``, and both families linearly independent.
    """
    if src and dst and src[0].dim != dst[0].dim:
        raise ValueError(
            f"ambient dimensions differ: src {src[0].dim} vs dst {dst[0].dim}"
        )
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
    return Operator(src[0].dim, _frozen(f_dst @ f_src.conj().T))


def validate_povm(p: Povm) -> PovmReport:
    """Report Hermiticity, positivity, and completeness of a POVM: the report
    kept from the check made when it was built. Never raises; ``passed`` is
    true for every Povm, since one failing the ``OP_TOL`` thresholds cannot
    be made. See :class:`Povm` and :meth:`Povm.completion` for the numbers:
    a completion's completeness error is the residual of UU^dag = I, the
    one product it forms when m >= D.
    """
    return p._report


def _identity_gap(mat: np.ndarray) -> float:
    """max |mat - I| over the entries of a square matrix; keeps a NaN."""
    return float(np.max(np.abs(mat - np.eye(len(mat)))))


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
    rng = np.random.default_rng(seed)
    center = ball.center.amplitudes
    if ball.center.dim == 1:
        return StateVector(1, center)
    direction = _orthogonal_direction(rng, center)
    return _at_fidelity(center, direction, float(rng.uniform(1.0 - ball.radius, 1.0)))


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
    numpy Generator. ValueError unless dim is an integer >= 1."""
    dim = _integer("state dimension", dim, 1)
    rng = np.random.default_rng(seed)
    return normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def pair_at_fidelity(dim: int, fidelity: float, seed) -> tuple:
    """A Haar-random state and a partner at exactly |<first|second>| = fidelity:
    fidelity * first + sqrt(1 - fidelity^2) * (a Haar direction orthogonal
    to first). ``seed`` may be an int or a numpy Generator. ValueError unless
    dim is an integer >= 2."""
    dim = _integer("pair dimension", dim, 2)
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    rng = np.random.default_rng(seed)
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


def _float(value) -> float:
    """A JSON number as a float; a bool, a string or a null raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r:.40}")
    return float(value)


def _floats(value) -> np.ndarray:
    """A JSON number array as floats; bools, strings or nulls raise TypeError."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {value!r:.40}")
    return array.astype(float, copy=False)


def _field(obj: dict, key: str, what: str, convert):
    """convert(obj[key]) for ``_float`` or ``_floats``, with a wrong type (a
    list or an object where a number belongs) or an overflowing number
    (1e400) raised as ValueError. Integer fields go through ``_integer``."""
    try:
        return convert(obj[key])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{what} JSON: {key}: {exc}") from None


def _numeric_fields(obj: dict, what: str, count) -> tuple:
    """(dim, entries) of a state or operator object: an integer >= 1 and the
    count(dim) complex entries, row-major for a matrix."""
    _require(obj, ("dim", "re", "im"), what)
    dim = _integer(f"{what} JSON: dim", obj["dim"], 1)
    re, im = _field(obj, "re", what, _floats), _field(obj, "im", what, _floats)
    if re.shape != (count(dim),) or im.shape != (count(dim),):
        raise ValueError(f"{what} JSON: expected {count(dim)} re/im entries")
    with np.errstate(invalid="ignore"):  # 1j * inf; the constructors reject non-finite entries
        return dim, _frozen(re + 1j * im)


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
    dim = _integer("povm JSON: dim", obj["dim"], 1)
    return Povm(dim, tuple(operator_from_json(e) for e in obj["effects"]))
