"""Independent oracles for psigauge CLI outputs, and the corruptions that
prove each oracle can fail.

Every check takes the text a CLI invocation printed and returns a list of
problems (empty when the output is right). Expected values come from the
closed forms of the paper and from definitions recomputed here with plain
numpy; nothing is re-derived by calling psigauge itself. Every corruption
takes a correct output and returns one that its check must reject.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: noisy estimates may sit this many standard deviations from their mean
SIGMA_BAND = 6.0
#: what a perfect exclusion search reaches (thm1, thm4, antidistinguishable sets)
ZERO_VALUE = 1e-12
#: an exclusion value below this for a set that is not antidistinguishable is wrong
POSITIVE_VALUE = 1e-6


def _results(text: str) -> dict:
    return json.loads(text)["results"]


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _edit(text: str, edit) -> str:
    """Apply ``edit`` to the results of a JSON report and re-render it."""
    payload = json.loads(text)
    edit(payload["results"])
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def thm1_delta_star(d: int) -> float:
    return 1.0 - math.sqrt((d - 1) / d)


def thm2_delta_nd(d: int, n: int) -> float:
    c = ((d - 2) / (d - 1)) ** (1.0 / n)
    return 1.0 - math.sqrt(1.0 - (d - 1) * (1.0 - c) / d)


def gamma_d(d: int) -> float:
    return (d - 1) * (math.log(d - 1) - math.log(d - 2)) / (2 * d)


def zero_count_upper(d: int, shots: int, confidence: float) -> float:
    """Union of d exact one-sided Clopper-Pearson limits at zero counts:
    each term is 1 - (alpha/d)^(1/shots) with alpha = 1 - confidence."""
    return d * (1.0 - ((1.0 - confidence) / d) ** (1.0 / shots))


def noisy_eps_sigma(d: int, shots: int, p: float, q: float):
    """Mean and standard deviation of eps_hat under depolarizing weight p
    and outcome flip q. The paired outcome has probability
    ((1-q) p + q)/d on every preparation, because tr(E_k)/D = 1/d and the
    noiseless probability is 0."""
    mean = (1.0 - q) * p + q
    per = mean / d
    return mean, math.sqrt(d * per * (1.0 - per) / shots)


def squared_overlaps(vectors) -> list:
    a, b, c = (np.asarray(v) for v in vectors)
    return [abs(np.vdot(a, b)) ** 2, abs(np.vdot(a, c)) ** 2, abs(np.vdot(b, c)) ** 2]


def cfs_antidistinguishable(vectors) -> bool:
    """Caves-Fuchs-Schack criterion for three pure states: with x the
    squared pairwise overlaps, antidistinguishable iff sum(x) < 1 and
    (sum(x) - 1)^2 >= 4 x1 x2 x3."""
    x = squared_overlaps(vectors)
    s = sum(x)
    return s < 1.0 and (s - 1.0) ** 2 >= 4.0 * x[0] * x[1] * x[2]


def cfs_margin(vectors) -> float:
    """How far inside the CFS region a triple lies: positive when it is
    antidistinguishable, negative when it is not."""
    x = squared_overlaps(vectors)
    s = sum(x)
    return min(1.0 - s, (s - 1.0) ** 2 - 4.0 * x[0] * x[1] * x[2])


# ---------------------------------------------------------------------------
# protocol commands: thm1, thm2, sweep
# ---------------------------------------------------------------------------


def _check_counts(r: dict, d: int, shots: int, p: float, q: float, conf: float) -> list:
    problems = []
    counts = np.asarray(r["counts"])
    if counts.shape != (d, d):
        return [f"counts shape {counts.shape}, expected {(d, d)}"]
    if not (counts.sum(axis=1) == shots).all():
        problems.append("a count row does not sum to the shot count")
    eps_hat = r["epsilon_exp_hat"]
    eps_upper = r["epsilon_upper_bound"]
    if not _close(eps_hat, float(np.trace(counts)) / shots, 1e-12):
        problems.append("eps_hat is not the diagonal share of the counts")
    if p == 0.0 and q == 0.0:
        if np.trace(counts) != 0 or eps_hat != 0.0:
            problems.append(f"noiseless run fired a paired outcome (eps_hat {eps_hat})")
        if not _close(eps_upper, zero_count_upper(d, shots, conf)):
            problems.append(
                f"eps_upper {eps_upper} != zero-count bound {zero_count_upper(d, shots, conf)}"
            )
    else:
        mean, sigma = noisy_eps_sigma(d, shots, p, q)
        if abs(eps_hat - mean) > SIGMA_BAND * sigma:
            problems.append(f"eps_hat {eps_hat} is more than 6 sigma from {mean}")
        if eps_upper < eps_hat:
            problems.append("eps_upper lies below eps_hat")
    return problems


def check_thm1(d: int, shots: int, p: float, q: float, conf: float):
    def check(text: str) -> list:
        r = _results(text)
        problems = _check_counts(r, d, shots, p, q, conf)
        if not _close(r["delta_star"], thm1_delta_star(d), 1e-12):
            problems.append(f"delta_star {r['delta_star']} != 1 - sqrt((d-1)/d)")
        return problems

    return check


def check_thm2(d: int, n: int, shots: int, p: float, q: float, conf: float):
    def check(text: str) -> list:
        r = _results(text)
        problems = _check_counts(r, d, shots, p, q, conf)
        delta_nd = thm2_delta_nd(d, n)
        expected = {
            "delta_nd": delta_nd,
            "gamma_d": gamma_d(d),
            "delta_star": 1.0 - (1.0 - delta_nd) ** n,
            "n_delta_over_gamma": n * delta_nd / gamma_d(d),
            "epsilon_single_copy_bound": r["epsilon_upper_bound"] ** (1.0 / n),
        }
        for key, value in expected.items():
            if not _close(r[key], value):
                problems.append(f"{key} {r[key]} != closed form {value}")
        if r["n_copies"] != n:
            problems.append(f"n_copies {r['n_copies']} != {n}")
        return problems

    return check


def corrupt_protocol(d: int, shots: int, p: float, q: float):
    """Shift eps_hat by 10 sigma (at least 10 counts' worth)."""
    _, sigma = noisy_eps_sigma(d, shots, p, q)
    shift = 10.0 * max(sigma, 1.0 / shots)

    def corrupt(text: str) -> str:
        return _edit(text, lambda r: r.update(epsilon_exp_hat=r["epsilon_exp_hat"] + shift))

    return corrupt


def _sweep_rows(text: str) -> list:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def check_sweep(grid: list, shots: int, p: float, q: float, conf: float, seed: int):
    def check(text: str) -> list:
        rows = _sweep_rows(text)
        if len(rows) != len(grid):
            return [f"{len(rows)} sweep rows, expected {len(grid)}"]
        problems = []
        for i, (row, (d, n)) in enumerate(zip(rows, grid)):
            eps_hat = float(row["eps_hat"])
            eps_upper = float(row["eps_upper"])
            if int(row["dim"]) != d or int(row["copies"]) != n or int(row["seed"]) != seed + i:
                problems.append(f"row {i} labels {row} do not match the grid")
            if p == 0.0 and q == 0.0:
                if eps_hat != 0.0 or not _close(eps_upper, zero_count_upper(d, shots, conf)):
                    problems.append(f"row {i}: noiseless eps {eps_hat}, {eps_upper}")
            else:
                mean, sigma = noisy_eps_sigma(d, shots, p, q)
                if abs(eps_hat - mean) > SIGMA_BAND * sigma or eps_upper < eps_hat:
                    problems.append(f"row {i}: eps_hat {eps_hat} outside 6 sigma of {mean}")
        return problems

    return check


def corrupt_sweep(grid: list, shots: int, p: float, q: float):
    d = grid[0][0]
    _, sigma = noisy_eps_sigma(d, shots, p, q)
    shift = 10.0 * max(sigma, 1.0 / shots)

    def corrupt(text: str) -> str:
        lines = text.splitlines(keepends=True)
        head = [line for line in lines if line.startswith("#")]
        rows = _sweep_rows(text)
        rows[0]["eps_hat"] = repr(float(rows[0]["eps_hat"]) + shift)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return "".join(head) + out.getvalue()

    return corrupt


# ---------------------------------------------------------------------------
# thm4, scaling
# ---------------------------------------------------------------------------


def check_thm4(d: int):
    t = math.sqrt((d - 1) / d)

    def check(text: str) -> list:
        r = _results(text)
        problems = []
        if not r["exclusion_value"] <= ZERO_VALUE:
            problems.append(f"exclusion_value {r['exclusion_value']} > {ZERO_VALUE}")
        if not _close(r["delta_star"], 1.0 - t, 1e-12):
            problems.append(f"delta_star {r['delta_star']} != 1 - t")
        if len(r["center_overlaps"]) != d or any(
            abs(o - t) > 1e-12 for o in r["center_overlaps"]
        ):
            problems.append("a center overlap differs from t")
        if r["zero_amplitude_max"] > 1e-15:
            problems.append("a state has weight on the direction it must omit")
        return problems

    return check


def corrupt_thm4(text: str) -> str:
    return _edit(text, lambda r: r.update(exclusion_value=r["exclusion_value"] + 1e-6))


def check_scaling(delta: float):
    def thm2_copies() -> int:
        n = 1
        while thm2_delta_nd(3, n) > delta:
            n += 1
        return n

    d = max(2, math.floor(1.0 / (delta * (2.0 - delta))))
    while thm1_delta_star(d) > delta:
        d += 1
    pbr = math.ceil(math.sqrt(2.0) * math.log(2.0) / math.sqrt(delta))
    expected = {
        "thm1_dim": d,
        "thm2_copies_d3": thm2_copies(),
        "pbr_copies": pbr,
        "pbr_state_count": 2**pbr,
    }

    def check(text: str) -> list:
        r = _results(text)
        return [f"{k} {r[k]} != {v}" for k, v in expected.items() if r[k] != v]

    return check


def corrupt_scaling(text: str) -> str:
    return _edit(text, lambda r: r.update(thm1_dim=r["thm1_dim"] + 1))


# ---------------------------------------------------------------------------
# exclusion search
# ---------------------------------------------------------------------------


def check_exclusion(state_count: int, antidistinguishable: bool):
    def check(text: str) -> list:
        r = _results(text)
        problems = []
        if r["state_count"] != state_count:
            problems.append(f"state_count {r['state_count']} != {state_count}")
        value = r["best_value"]
        if antidistinguishable and not value <= ZERO_VALUE:
            problems.append(f"antidistinguishable set scored {value} > {ZERO_VALUE}")
        if not antidistinguishable and not value > POSITIVE_VALUE:
            problems.append(
                f"set that is not antidistinguishable scored {value:.3e} <= {POSITIVE_VALUE}"
            )
        return problems

    return check


def corrupt_exclusion(antidistinguishable: bool):
    wrong = 1e-3 if antidistinguishable else 0.0

    def corrupt(text: str) -> str:
        return _edit(text, lambda r: r.update(best_value=wrong))

    return corrupt


# ---------------------------------------------------------------------------
# ontic models
# ---------------------------------------------------------------------------

#: the hemisphere model's balls keep a common support exactly below this radius
KS_CONTINUITY_EDGE = 1.0 - math.cos(math.pi / 4.0)


def check_ks_model(checks: list, delta: float = 0.25, pairs: int = 100, samples: int = 200):
    def check(text: str) -> list:
        r = _results(text)
        problems = []
        found = {c["check"]: c for c in r["checks"]}
        if [c["check"] for c in r["checks"]] != checks:
            return [f"checks {list(found)} != {checks}"]
        if "continuity" in found:
            c = found["continuity"]
            continuous = delta < KS_CONTINUITY_EDGE
            want = "continuous-at-delta" if continuous else "no-witness-found"
            if c["verdict"] != want or (c["common_support_size"] > 0) != continuous:
                problems.append(f"continuity at {delta}: {c['verdict']}, expected {want}")
            if c["n_samples"] != samples or c["delta"] != delta:
                problems.append("continuity probe echoes the wrong configuration")
        if "reproduce" in found:
            c = found["reproduce"]
            if not c["max_error"] <= 0.01 or c["pairs"] != pairs:
                problems.append(f"reproduce max_error {c['max_error']} > 0.01")
        if "classify" in found:
            c = found["classify"]
            if c["verdict"] != "psi-epistemic" or not 0.0 < c["overlap"] <= 1.0:
                problems.append(f"classify at fidelity 0.9 read {c['verdict']}")
        if "epsilon" in found:
            c = found["epsilon"]
            if not 0.0 < c["epsilon"] <= 1.0 or c["witness_count"] < 1:
                problems.append(f"epsilon {c['epsilon']} with {c['witness_count']} witnesses")
            # for two preparations the overlap is 1 - total variation either way
            if "classify" in found and abs(c["epsilon"] - found["classify"]["overlap"]) > 1e-12:
                problems.append("epsilon and the classify overlap disagree")
        return problems

    return check


def corrupt_ks_model(text: str) -> str:
    def edit(r):
        c = r["checks"][0]
        if c["check"] == "continuity":
            flipped = {"continuous-at-delta": "no-witness-found"}
            c["verdict"] = flipped.get(c["verdict"], "continuous-at-delta")
        elif c["check"] == "reproduce":
            c["max_error"] = 0.02
        else:
            c["verdict"] = "psi-ontic"

    return _edit(text, edit)


def check_model_file(model: dict, checks: list):
    """Definitions recomputed from the model payload: overlap as the sum
    of pointwise minima, exclusion sum as sum_k (P_k R_m)[k]."""
    labels = sorted(model["preparations"])
    preps = np.array([model["preparations"][q] for q in labels])
    overlap = float(preps.min(axis=0).sum())
    pair_best = max(
        float(np.minimum(preps[i], preps[j]).sum())
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    )
    nogo = {}
    for m, rows in model["responses"].items():
        table = preps @ np.asarray(rows)
        nogo[m] = float(sum(table[k, k] for k in range(len(labels))))

    def check(text: str) -> list:
        r = _results(text)
        problems = []
        if [c["check"] for c in r["checks"]] != checks:
            return ["the report lists other checks than were asked for"]
        for c in r["checks"]:
            if c["check"] == "validate":
                detail = c.get("detail", {})
                if not c["passed"] or detail.get("lambda_count") != model["lambda_count"]:
                    problems.append("a valid model file failed validation")
                elif detail["preparations"] != labels:
                    problems.append("validation lists the wrong preparations")
            elif c["check"] == "nogo":
                if len(c["results"]) != len(nogo):
                    problems.append("nogo skipped a measurement")
                for row in c["results"]:
                    if not row["inequality_holds"]:
                        problems.append(f"nogo inequality fails on {row['measurement']}")
                    if not _close(row["lhs"], nogo[row["measurement"]]):
                        problems.append(f"nogo lhs {row['lhs']} != {nogo[row['measurement']]}")
                    if not _close(row["epsilon"], overlap):
                        problems.append(f"nogo epsilon {row['epsilon']} != {overlap}")
            elif c["check"] == "classify":
                want = "psi-epistemic" if pair_best > 1e-12 else "psi-ontic"
                if c["verdict"] != want or not _close(c["overlap"], pair_best):
                    problems.append(f"classify read {c['verdict']} at {c['overlap']}")
            elif c["check"] == "epsilon":
                if not _close(c["epsilon"], overlap):
                    problems.append(f"epsilon {c['epsilon']} != {overlap}")
        return problems

    return check


def corrupt_model_file(text: str) -> str:
    def edit(r):
        for c in r["checks"]:
            if c["check"] == "nogo":
                c["results"][0]["lhs"] += 0.01

    return _edit(text, edit)


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def _fibonacci_sphere(n: int) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    idx = np.arange(n, dtype=float) + 0.5
    polar = np.arccos(1.0 - 2.0 * idx / n)
    azimuth = 2.0 * np.pi * idx / golden
    return np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], 1
    )


def seed_cloud_coverage(theta: float, grid: int, tol: float) -> float:
    """Coverage of the two-point seed cloud, by brute force."""
    points = np.array([[0.0, 0.0, 1.0], [math.sin(theta), 0.0, math.cos(theta)]])
    lattice = _fibonacci_sphere(grid)
    dist = np.linalg.norm(lattice[:, None, :] - points[None, :, :], axis=2).min(axis=1)
    return float(np.mean(dist <= 2.0 * math.sin(tol / 2.0)))


def check_orbit(theta: float, steps: int, grid: int, tol: float = 0.05, reach: float = 0.99):
    """Coverage in [0, 1] and never decreasing, cloud sizes never
    decreasing, the seed cloud's coverage recomputed, and the reach
    threshold of the acceptance suite: the sphere is covered to 0.99
    at tolerance 0.05 by the final step."""
    start = seed_cloud_coverage(theta, grid, tol)

    def check(text: str) -> list:
        r = _results(text)
        traj = r["trajectory"]
        if [row["step"] for row in traj] != list(range(steps + 1)):
            return [f"trajectory has steps {[row['step'] for row in traj]}"]
        cov = [row["coverage"] for row in traj]
        size = [row["cloud_size"] for row in traj]
        problems = []
        if any(not 0.0 <= c <= 1.0 for c in cov):
            problems.append("a coverage lies outside [0, 1]")
        if any(b < a for a, b in zip(cov, cov[1:])):
            problems.append(f"coverage decreases: {cov}")
        if any(b < a for a, b in zip(size, size[1:])) or size[0] != 2:
            problems.append(f"cloud sizes {size} shrink or do not start at 2")
        if abs(cov[0] - start) > 1e-12:
            problems.append(f"seed coverage {cov[0]} != recomputed {start}")
        if cov[-1] < reach:
            problems.append(f"final coverage {cov[-1]} below {reach}")
        if r["final_coverage"] != cov[-1] or r["final_cloud_size"] != size[-1]:
            problems.append("final fields disagree with the trajectory")
        return problems

    return check


def corrupt_orbit(text: str) -> str:
    def edit(r):
        r["trajectory"][-1]["coverage"] = r["trajectory"][-2]["coverage"] * 0.5

    return _edit(text, edit)
