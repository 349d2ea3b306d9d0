import numpy as np
import pytest

from psigauge.ontic import DiscreteOnticModel


def haar_state(rng: np.random.Generator, dim: int):
    from psigauge.qcore import StateVector

    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(dim, raw / np.linalg.norm(raw))


def born(state, matrix) -> float:
    """<psi|M|psi> straight from the amplitudes: a Born-rule reference that
    shares no code with qcore."""
    a = state.amplitudes
    return float(np.vdot(a, matrix @ a).real)


def gram_level_and_floor(d: int, n: int, f: float) -> tuple:
    """The pairwise overlap c of the n-fold powers of d equal-overlap states at
    fidelity f from one centre, and the least exclusion value E over all
    measurements: their Gram matrix (1 - c)I + cJ has eigenvalues 1 - c,
    (d - 1) times, and 1 + (d - 1)c."""
    c = (f * f - (1 - f * f) / (d - 1)) ** n
    return c, max(0.0, np.sqrt(1 + (d - 1) * c) - (d - 1) * np.sqrt(1 - c)) ** 2 / d


def dense_measurement(ensemble):
    """The ensemble with its measurement rebuilt from its effect matrices, for
    tests whose Born tables run through the columns that ``Povm(dim, effects)``
    splits each effect into."""
    import dataclasses

    from psigauge.qcore import Povm

    m = ensemble.measurement
    return dataclasses.replace(ensemble, measurement=Povm(m.dim, m.effects))


def random_effects(rng: np.random.Generator, dim: int) -> dict:
    """Effect matrices on C^dim, each list summing to I, all read off one Haar
    unitary V:

    * "coarse-grained": the projectors onto V's columns dealt at random to
      1..dim outcomes, plus one zero effect;
    * "full-rank": A and I - A for A = V diag(a) V^dag, a drawn from (0, 1);
    * "clipped" (dim >= 2): the projectors onto V's first column and onto the
      rest, with 5e-11 |v><v| moved from the first to the second, v V's last
      column, so the first effect has the eigenvalue -5e-11.
    """
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = np.linalg.qr(z)[0]
    owner = rng.permutation(np.arange(dim) % int(rng.integers(1, dim + 1)))
    grains = [v[:, owner == k] @ v[:, owner == k].conj().T for k in range(owner.max() + 1)]
    a = v * rng.uniform(0.0, 1.0, dim) @ v.conj().T
    effects = {"coarse-grained": grains + [np.zeros((dim, dim))], "full-rank": [a, np.eye(dim) - a]}
    if dim >= 2:
        first = np.outer(v[:, 0], v[:, 0].conj())
        shift = 5e-11 * np.outer(v[:, -1], v[:, -1].conj())
        effects["clipped"] = [first - shift, np.eye(dim) - first + shift]
    return effects


def four_outcome_measurements() -> dict:
    """Serialized 4-outcome measurements on the three theorem1_ensemble(3)
    states, each of which never fires outcome k on state k: the basis
    measurement with its last effect split in halves, and {0, 0, 0, I},
    which never looks at the state."""
    from psigauge.qcore import Operator, Povm, povm_to_json

    *kept, last = Povm.basis(3).effects
    half = Operator(3, last.entries / 2)
    zero = Operator(3, np.zeros((3, 3)))
    return {
        "split": povm_to_json(Povm(3, (*kept, half, half)))["effects"],
        "soak-up": povm_to_json(Povm(3, (zero, zero, zero, Operator(3, np.eye(3)))))["effects"],
    }


def random_discrete_model(seed: int) -> DiscreteOnticModel:
    """Arbitrary model whose measurements all have one outcome per
    preparation (the regime where the exclusion bound is a theorem)."""
    rng = np.random.default_rng(seed)
    lam = int(rng.integers(1, 9))
    n_prep = int(rng.integers(2, 6))
    preps = {}
    for k in range(n_prep):
        weights = rng.dirichlet(rng.uniform(0.2, 3.0, size=lam))
        # occasionally force sparse supports
        if lam > 1 and rng.random() < 0.4:
            weights[rng.integers(0, lam)] = 0.0
            weights /= weights.sum()
        preps[f"q{k}"] = weights
    resps = {}
    for m in range(int(rng.integers(1, 4))):
        if rng.random() < 0.3:
            # deterministic responder
            table = np.zeros((lam, n_prep))
            table[np.arange(lam), rng.integers(0, n_prep, size=lam)] = 1.0
        else:
            table = rng.dirichlet(np.ones(n_prep), size=lam)
        resps[f"m{m}"] = table
    return DiscreteOnticModel(lam, preps, resps)


@pytest.fixture(scope="session")
def ks_100k():
    from psigauge.ontic import ks_qubit_model

    return ks_qubit_model(100_000)
