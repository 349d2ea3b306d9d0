"""Bloch-sphere geometry helpers shared by the ontic and orbit modules."""

from __future__ import annotations

import numpy as np

from .qcore import StateVector, _integer


def fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform lattice of ``n`` unit vectors on the 2-sphere.

    Golden-angle spiral with half-integer offsets; deterministic.
    Returns an (n, 3) float array. ValueError unless n is an integer >= 1.
    """
    n = _integer("sphere point count n", n, 1)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    idx = np.arange(n, dtype=float) + 0.5
    polar = np.arccos(1.0 - 2.0 * idx / n)
    azimuth = 2.0 * np.pi * idx / golden
    sp = np.sin(polar)
    pts = np.empty((n, 3))
    pts[:, 0] = sp * np.cos(azimuth)
    pts[:, 1] = sp * np.sin(azimuth)
    pts[:, 2] = np.cos(polar)
    return pts


def bloch_from_state(state: StateVector) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit state."""
    if state.dim != 2:
        raise ValueError(f"Bloch vector needs a qubit, got dim {state.dim}")
    a0, a1 = state.amplitudes
    cross = np.conj(a0) * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def rodrigues_rotate(vectors: np.ndarray, axes: np.ndarray, angles: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Rotate ``vectors`` about unit ``axes`` by ``angles`` (all broadcastable).

    Standard axis-angle formula v cos(t) + (u x v) sin(t) + u (u.v)(1 - cos(t)).
    Shapes: vectors (..., 3), axes (..., 3), angles (...); broadcast into ``out`` if given.
    """
    v = np.asarray(vectors, dtype=float)
    u = np.asarray(axes, dtype=float)
    t = np.asarray(angles, dtype=float)[..., None]
    cos_t = np.cos(t)
    out = np.multiply(v, cos_t, out=out)
    out += np.cross(u, v) * np.sin(t)
    out += u * np.sum(u * v, axis=-1, keepdims=True) * (1.0 - cos_t)
    return out
