"""Seeded workloads: the input files and the fixed list of CLI invocations
each workload runs per pass, every invocation paired with its oracle.

Everything here derives from the workload seed: the state files, the
Haar triples, the discrete-model file and every ``--seed`` passed to the
program. The program sees only these files and argv.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracles as o

SHOTS = 100_000
CONFIDENCE = 0.95


@dataclass(frozen=True)
class Call:
    """One CLI invocation. ``check`` maps its stdout to a list of problems;
    ``corrupt`` maps a correct stdout to one the check must reject.
    ``known_defect`` names a documented program defect that makes this
    check fail today; such failures are reported apart from the others."""

    argv: tuple
    check: Callable[[str], list]
    corrupt: Callable[[str], str]
    known_defect: str = ""


def _seeds(rng: np.random.Generator):
    while True:
        yield str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# protocol: dense preparations through the finite-shot experiment
# ---------------------------------------------------------------------------


def protocol(seed: int, workdir: str) -> list:
    seeds = _seeds(np.random.default_rng([seed, 1]))
    calls = []
    for d, p, q in ((8, 0.0, 0.0), (32, 0.02, 0.01), (64, 0.0, 0.0)):
        argv = ["thm1", "--dim", str(d)]
        if p or q:
            argv += ["--noise-p", str(p), "--noise-q", str(q)]
        calls.append(
            Call(
                tuple(argv + ["--seed", next(seeds)]),
                o.check_thm1(d, SHOTS, p, q, CONFIDENCE),
                o.corrupt_protocol(d, SHOTS, p, q),
            )
        )
    for d, n, p in ((3, 4, 0.0), (3, 6, 0.01), (4, 4, 0.0)):
        argv = ["thm2", "--dim", str(d), "--copies", str(n)]
        if p:
            argv += ["--noise-p", str(p)]
        calls.append(
            Call(
                tuple(argv + ["--seed", next(seeds)]),
                o.check_thm2(d, n, SHOTS, p, 0.0, CONFIDENCE),
                o.corrupt_protocol(d, SHOTS, p, 0.0),
            )
        )
    for family, dims, copies, p in (
        ("thm1", [2, 4, 8, 16, 32], [1], 0.01),
        ("thm2", [3, 4], [1, 2, 3], 0.0),
    ):
        argv = ["sweep", "--family", family, "--dims", ",".join(map(str, dims))]
        if family == "thm2":
            argv += ["--copies", ",".join(map(str, copies))]
        if p:
            argv += ["--noise-p", str(p)]
        s = next(seeds)
        grid = [(d, n) for d in dims for n in copies]
        calls.append(
            Call(
                tuple(argv + ["--seed", s]),
                o.check_sweep(grid, SHOTS, p, 0.0, CONFIDENCE, int(s)),
                o.corrupt_sweep(grid, SHOTS, p, 0.0),
            )
        )
    calls.append(
        Call(("thm4", "--dim", "64", "--seed", next(seeds)), o.check_thm4(64), o.corrupt_thm4)
    )
    calls.append(
        Call(
            ("scaling", "--delta", "0.001", "--seed", next(seeds)),
            o.check_scaling(0.001),
            o.corrupt_scaling,
        )
    )
    return calls


# ---------------------------------------------------------------------------
# search: exclusion searches and ontic-model probes
# ---------------------------------------------------------------------------


def _state_json(amps: np.ndarray) -> dict:
    return {"dim": int(amps.size), "re": amps.real.tolist(), "im": amps.imag.tolist()}


def _phased(rng: np.random.Generator, vectors) -> list:
    """Random global phase per state: changes no overlap, so no answer."""
    return [v * np.exp(2j * np.pi * rng.random()) for v in vectors]


def thm1_vectors(d: int) -> list:
    out = []
    for k in range(d):
        amps = np.ones(d, dtype=complex)
        amps[k] = 0.0
        out.append(amps / np.linalg.norm(amps))
    return out


def thm4_vectors(d: int, t: float) -> list:
    """Cyclic shifts of (0, t sqrt(d)/(d-1) + r/sqrt2, ... - r/sqrt2, ...),
    each at fidelity t from the uniform state and zero on its own index."""
    r = math.sqrt(max(0.0, 1.0 - t * t * d / (d - 1)))
    coeff = np.full(d, t * math.sqrt(d) / (d - 1))
    coeff[0] = 0.0
    coeff[1] += r / math.sqrt(2.0)
    coeff[2] -= r / math.sqrt(2.0)
    return [np.roll(coeff, k).astype(complex) for k in range(d)]


def _inv_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * w**-0.5) @ v.conj().T


def thm2_ensemble_payload(d: int, n: int) -> dict:
    """The n-copy ensemble file, built from its definition: tensor powers
    of alpha|k> + (beta/sqrt d) sum|i>, and effects
    |u_k><u_k| + (I - sum_m |u_m><u_m|)/d where u_k is the preimage of the
    embedded omit-one state |k> under the Gram-preserving isometry."""
    c = ((d - 2) / (d - 1)) ** (1.0 / n)
    alpha = -math.sqrt(1.0 - c)
    beta = -alpha / math.sqrt(d) + math.sqrt(alpha * alpha / d + c)
    big = d**n
    powers = []
    for k in range(d):
        single = np.full(d, beta / math.sqrt(d), dtype=complex)
        single[k] += alpha
        single /= np.linalg.norm(single)
        power = single
        for _ in range(n - 1):
            power = np.kron(power, single)
        powers.append(power)
    src = np.array(powers).T
    dst = np.zeros((big, d), dtype=complex)
    dst[:d, :] = np.array(thm1_vectors(d)).T
    v = (dst @ _inv_sqrt(dst.conj().T @ dst)) @ (src @ _inv_sqrt(src.conj().T @ src)).conj().T
    u = v.conj().T[:, :d]
    rest = (np.eye(big) - u @ u.conj().T) / d
    effects = [np.outer(u[:, k], u[:, k].conj()) + rest for k in range(d)]
    delta_nd = o.thm2_delta_nd(d, n)
    return {
        "kind": "theorem2",
        "params": {"d": d, "n": n, "c": c, "alpha": alpha, "beta": beta, "delta_nd": delta_nd},
        "states": [_state_json(p) for p in powers],
        "measurement": [
            {"dim": big, "re": e.real.reshape(-1).tolist(), "im": e.imag.reshape(-1).tolist()}
            for e in effects
        ],
        "center": _state_json(np.full(big, 1.0 / math.sqrt(big), dtype=complex)),
        "delta_star": 1.0 - (1.0 - delta_nd) ** n,
    }


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_triple(antidistinguishable: bool) -> list:
    """A fixed Haar triple in C^3 on the requested side of the CFS
    criterion, with a margin so a local optimizer's answer is decisive.
    The one that is not antidistinguishable has squared overlaps summing
    to 1.2-1.6, where a 20-restart search costs about 0.15 s on 2 cores; other
    Haar triples cost 0.1-0.6 s, which would tie pass time to the seed."""
    rng = np.random.default_rng(0)
    while True:
        triple = [_haar_unitary(rng, 3)[:, 0] for _ in range(3)]
        margin = o.cfs_margin(triple)
        overlaps = sum(o.squared_overlaps(triple))
        if antidistinguishable and margin >= 0.02:
            return triple
        if not antidistinguishable and margin <= -0.05 and 1.2 <= overlaps <= 1.6:
            return triple


def haar_triple(rng: np.random.Generator, antidistinguishable: bool) -> list:
    """The reference triple in a Haar-random frame with random phases: the
    seed picks the states, while the overlaps, and with them the answer
    and the search cost, stay fixed."""
    frame = _haar_unitary(rng, 3)
    return _phased(rng, [frame @ v for v in reference_triple(antidistinguishable)])


def random_model(rng: np.random.Generator, lam: int = 400, preps: int = 4, meas: int = 3) -> dict:
    """Discrete model whose measurements have one outcome per preparation,
    the regime where the exclusion inequality is a theorem. Some weights
    are zeroed so supports are partial."""
    prep = {}
    for k in range(preps):
        w = rng.dirichlet(np.full(lam, 0.5))
        w[rng.random(lam) < 0.3] = 0.0
        prep[f"q{k}"] = (w / w.sum()).tolist()
    resp = {}
    for m in range(meas):
        table = rng.dirichlet(np.ones(preps), size=lam)
        resp[f"m{m}"] = table.tolist()
    return {"lambda_count": lam, "preparations": prep, "responses": resp}


PADDED_DEFECT = (
    "result_to_povm adds an unpenalized complement outcome when the space is"
    " larger than the state count, so a zero-padded set scores ~0"
)


def search(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    seeds = _seeds(np.random.default_rng([seed, 3]))

    def write(name: str, payload) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def exclusion(name: str, vectors, antidist: bool, defect: str = "") -> Call:
        path = write(name, [_state_json(v) for v in vectors])
        return Call(
            ("exclusion", "--states", path, "--seed", next(seeds)),
            o.check_exclusion(len(vectors), antidist),
            o.corrupt_exclusion(antidist),
            defect,
        )

    calls = [exclusion(f"thm1_d{d}.json", _phased(rng, thm1_vectors(d)), True) for d in (4, 8, 16)]
    t = math.sqrt(5.0 / 6.0) * float(rng.uniform(0.5, 0.9))
    calls.append(exclusion("thm4_d6.json", _phased(rng, thm4_vectors(6, t)), True))
    payload = thm2_ensemble_payload(3, 2)
    calls.append(
        Call(
            ("exclusion", "--states", write("thm2_d3_n2.json", payload), "--seed", next(seeds)),
            o.check_exclusion(3, True),
            o.corrupt_exclusion(True),
        )
    )
    # the CFS criterion, not the generator, says which answer is right
    yes = haar_triple(rng, True)
    no = haar_triple(rng, False)
    calls.append(exclusion("triple_ad.json", yes, o.cfs_antidistinguishable(yes)))
    calls.append(exclusion("triple_not_ad.json", no, o.cfs_antidistinguishable(no)))
    padded = [np.concatenate([v, [0.0]]) for v in no]
    calls.append(
        exclusion("triple_not_ad_c4.json", padded, o.cfs_antidistinguishable(padded), PADDED_DEFECT)
    )

    ks = ("model", "--builtin", "ks", "--grid", "100000")
    for delta in (0.25, 0.35):
        calls.append(
            Call(
                ks + ("--check", "continuity", "--delta", str(delta), "--seed", next(seeds)),
                o.check_ks_model(["continuity"], delta=delta),
                o.corrupt_ks_model,
            )
        )
    checks = ["reproduce", "classify", "epsilon"]
    calls.append(
        Call(
            ks + sum((("--check", c) for c in checks), ()) + ("--seed", next(seeds)),
            o.check_ks_model(checks),
            o.corrupt_ks_model,
        )
    )
    model = random_model(rng)
    checks = ["validate", "nogo", "classify", "epsilon"]
    calls.append(
        Call(
            ("model", "--file", write("model.json", model))
            + sum((("--check", c) for c in checks), ())
            + ("--seed", next(seeds)),
            o.check_model_file(model, checks),
            o.corrupt_model_file,
        )
    )
    return calls


# ---------------------------------------------------------------------------
# orbit: sphere filling
# ---------------------------------------------------------------------------


def orbit(seed: int, workdir: str) -> list:
    seeds = _seeds(np.random.default_rng([seed, 4]))
    calls = []
    for theta, steps, grid in ((0.19634954, 4, 4000), (1.5707963, 3, 4000), (0.5, 3, 100_000)):
        argv = ("orbit", "--theta", str(theta), "--steps", str(steps))
        if grid != 4000:
            argv += ("--grid", str(grid))
        calls.append(
            Call(argv + ("--seed", next(seeds)), o.check_orbit(theta, steps, grid), o.corrupt_orbit)
        )
    return calls


WORKLOADS = {"protocol": protocol, "search": search, "orbit": orbit}
