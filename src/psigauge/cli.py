"""Command-line front end.

Subcommands: thm1, thm2, thm4, model, orbit, scaling, exclusion, sweep.
Exit codes: 0 success, 1 usage error, 2 numerical-contract violation.
Reports go to stdout unless --out is given. Every payload embeds the tool
version and the full flag configuration; nothing embeds a timestamp, so
identical invocations produce byte-identical output.

The seed flag defaults to the PSI_GAUGE_SEED environment variable when it
is set, and to 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

import numpy as np

from . import __version__
from ._geometry import bloch_from_state
from .ensembles import (
    TENSOR_CAP,
    ensemble_from_json,
    gamma_coefficient,
    scaling_report,
    theorem1_ensemble,
    theorem2_ensemble,
    theorem4_ensemble,
)
from .exclusion import ExclusionProblem, exclusion_value, optimize, result_to_json
from .experiment import (
    NoiseSpec,
    report_to_json,
    run_protocol,
    sweep,
    sweep_to_csv,
)
from .ontic import (
    classify,
    delta_continuity_probe,
    epsilon_overlap,
    ks_qubit_model,
    model_from_json,
    model_from_parametric,
    nogo_check,
)
from .orbit import (
    MIN_DEDUP_TOLERANCE,
    coverage,
    coverage_trajectory,
    initial_cloud,
    orbit_step,
)
from .qcore import (
    ContractViolation,
    StateVector,
    inner,
    normalized,
    state_from_json,
)

MODEL_CHECKS = ("validate", "reproduce", "classify", "epsilon", "nogo", "continuity")

_CENTERS = {
    "plus": lambda: normalized(np.array([1.0, 1.0])),
    "minus": lambda: normalized(np.array([1.0, -1.0])),
    "zero": lambda: StateVector.basis(2, 0),
    "one": lambda: StateVector.basis(2, 1),
}


class UsageError(ValueError):
    """Bad flag values detected after parsing; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _seed(text: str) -> int:
    """A non-negative seed. argparse runs the PSI_GAUGE_SEED default through
    this too, so a bad value there is a usage error like a bad flag."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer (--seed or PSI_GAUGE_SEED), got {text!r}"
        )
    return int(text)


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_protocol_flags(sub):
    sub.add_argument("--shots", type=int, default=100_000, help="shots per preparation")
    sub.add_argument("--noise-p", type=float, default=0.0, help="depolarizing weight")
    sub.add_argument("--noise-q", type=float, default=0.0, help="outcome flip weight")
    sub.add_argument("--confidence", type=float, default=0.95)


def _add_common_flags(sub):
    sub.add_argument("--seed", type=_seed, default=os.environ.get("PSI_GAUGE_SEED", "0"))
    sub.add_argument("--out", type=str, default=None, help="write report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psigauge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"psigauge {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("thm1", parents=[], help="exclusion ensemble in dimension d")
    p.add_argument("--dim", type=int, default=3)
    _add_protocol_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_thm1)

    p = subs.add_parser("thm2", help="n-copy separable-model ensemble")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--copies", type=int, default=2)
    _add_protocol_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_thm2)

    p = subs.add_parser("thm4", help="tunable-overlap family with basis exclusion")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--t", type=float, default=None, help="center overlap (default max)")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_thm4)

    p = subs.add_parser("model", help="ontic-model checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=("ks",))
    src.add_argument("--file", type=str)
    p.add_argument("--grid", type=int, default=10_000, help="lattice size for --builtin ks")
    p.add_argument(
        "--check", action="append", choices=MODEL_CHECKS, help="repeatable; default validate"
    )
    p.add_argument("--pairs", type=int, default=100, help="sampled pairs for reproduce")
    p.add_argument("--fidelity", type=float, default=0.9, help="pair fidelity for classify")
    p.add_argument("--delta", type=float, default=0.25, help="ball radius for continuity")
    p.add_argument("--center", choices=sorted(_CENTERS), default="plus")
    p.add_argument("--samples", type=int, default=200, help="ball samples for continuity")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_model)

    p = subs.add_parser("orbit", help="rotation-orbit sphere filling")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--grid", type=int, default=4000)
    p.add_argument("--tol", type=float, default=0.05, help="angular coverage tolerance")
    p.add_argument("--rotations", type=int, default=24)
    p.add_argument("--dedup-tol", type=float, default=0.02)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_orbit)

    p = subs.add_parser("scaling", help="resource requirements at a target radius")
    p.add_argument("--delta", type=float, required=True)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_scaling)

    p = subs.add_parser("exclusion", help="optimize a measurement against a state file")
    p.add_argument("--states", type=str, required=True, help="JSON file of states")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=500)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_exclusion)

    p = subs.add_parser("sweep", help="protocol runs over a parameter grid")
    p.add_argument("--family", choices=("thm1", "thm2"), default="thm1")
    p.add_argument("--dims", type=_int_list, default=[2, 3, 4, 5, 6])
    p.add_argument("--copies", type=_int_list, default=[1])
    _add_protocol_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_sweep)
    return parser


def _config(args) -> dict:
    skip = {"handler", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _envelope(args, results: dict) -> dict:
    return {
        "tool": "psigauge",
        "version": __version__,
        "command": args.command,
        "config": _config(args),
        "results": results,
    }


def _render_json(args, results: dict) -> str:
    text = json.dumps(_envelope(args, results), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _render_csv(args, csv_text: str) -> str:
    header = json.dumps(_config(args), sort_keys=True)
    return f"# psigauge {__version__} {args.command} {header}\n{csv_text}"


def _protocol_noise(args) -> NoiseSpec:
    """The noise model of the protocol flags, after range checks of all four."""
    if args.shots < 1:
        raise UsageError("--shots must be >= 1")
    if not 0.0 < args.confidence < 1.0:
        raise UsageError("--confidence must lie in (0, 1)")
    for flag, value in (("--noise-p", args.noise_p), ("--noise-q", args.noise_q)):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{flag} must lie in [0, 1]")
    return NoiseSpec(args.noise_p, args.noise_q)


def cmd_thm1(args) -> str:
    if args.dim < 2:
        raise UsageError("--dim must be >= 2")
    noise = _protocol_noise(args)
    ensemble = theorem1_ensemble(args.dim)
    report = run_protocol(ensemble, noise, args.shots, args.confidence, args.seed)
    results = report_to_json(report)
    results["dim"] = args.dim
    results["delta_star"] = ensemble.delta_star
    return _render_json(args, results)


def cmd_thm2(args) -> str:
    if args.dim < 3:
        raise UsageError("--dim must be >= 3")
    if args.copies < 1:
        raise UsageError("--copies must be >= 1")
    if args.dim**args.copies > TENSOR_CAP:
        raise UsageError(
            f"--dim**--copies = {args.dim}**{args.copies} exceeds the cap of {TENSOR_CAP}"
        )
    noise = _protocol_noise(args)
    ensemble = theorem2_ensemble(args.dim, args.copies)
    report = run_protocol(ensemble, noise, args.shots, args.confidence, args.seed)
    results = report_to_json(report)
    delta_nd = ensemble.params["delta_nd"]
    gamma = gamma_coefficient(args.dim)
    results.update(
        {
            "dim": args.dim,
            "copies": args.copies,
            "delta_nd": delta_nd,
            "delta_star": ensemble.delta_star,
            "gamma_d": gamma,
            "n_delta_over_gamma": args.copies * delta_nd / gamma,
        }
    )
    return _render_json(args, results)


def cmd_thm4(args) -> str:
    if args.dim < 2:
        raise UsageError("--dim must be >= 2")
    t_max = float(np.sqrt((args.dim - 1) / args.dim))
    t = t_max if args.t is None else args.t
    if not 0.0 < t <= t_max + 1e-12:
        raise UsageError(f"--t must lie in (0, {t_max:.12f}] for dimension {args.dim}")
    ensemble = theorem4_ensemble(args.dim, t)
    states = ensemble.states
    overlaps = [abs(inner(s, ensemble.center)) for s in states]
    value = exclusion_value(states, ensemble.measurement)
    results = {
        "dim": args.dim,
        "t": t,
        "delta_star": ensemble.delta_star,
        "center_overlaps": overlaps,
        "exclusion_value": value,
        "zero_amplitude_max": max(
            float(abs(s.amplitudes[k])) for k, s in enumerate(states)
        ),
    }
    return _render_json(args, results)


def _qubit_pair_at_fidelity(rng: np.random.Generator, fidelity: float):
    """Haar state plus a partner at exactly the requested fidelity."""
    first = _haar_qubit(rng)
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    raw -= complex(np.vdot(first.amplitudes, raw)) * first.amplitudes
    if np.linalg.norm(raw) < 1e-12:
        fallback = np.array([1.0 + 0j, 0.0])
        raw = fallback - complex(np.vdot(first.amplitudes, fallback)) * first.amplitudes
    raw /= np.linalg.norm(raw)
    amps = fidelity * first.amplitudes + np.sqrt(1.0 - fidelity**2) * raw
    return first, StateVector(2, amps / np.linalg.norm(amps))


def _haar_qubit(rng: np.random.Generator) -> StateVector:
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return StateVector(2, raw / np.linalg.norm(raw))


def _load_model(args):
    with open(args.file, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def cmd_model(args) -> str:
    checks = args.check or ["validate"]
    if args.builtin is None and any(c in checks for c in ("reproduce", "continuity")):
        raise UsageError("reproduce and continuity need --builtin ks (a rule-based model)")
    if args.builtin is not None and "nogo" in checks:
        raise UsageError("nogo needs --file with measurement tables")
    results = {"checks": []}
    family = None
    if args.builtin == "ks":
        if args.grid < 100:
            raise UsageError("--grid must be >= 100")
        family = ks_qubit_model(args.grid)
        results["model"] = {"builtin": "ks", "lambda_count": family.lambda_count}
    for check in checks:
        results["checks"].append(_run_model_check(check, args, family))
    return _render_json(args, results)


def _run_model_check(check: str, args, family) -> dict:
    rng = np.random.default_rng(args.seed)
    if check == "validate":
        if family is not None:
            return {"check": check, "passed": True, "detail": family.description}
        try:
            model = _load_model(args)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            return {"check": check, "passed": False, "diagnostic": str(exc)}
        return {
            "check": check,
            "passed": True,
            "detail": {
                "lambda_count": model.lambda_count,
                "preparations": sorted(model.preparations),
                "measurements": sorted(model.responses),
            },
        }

    if check == "reproduce":
        worst = 0.0
        for _ in range(args.pairs):
            state = _haar_qubit(rng)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            predicted = family.predict(state, axis)
            born_plus = (1.0 + bloch_from_state(state) @ axis) / 2.0
            worst = max(
                worst, abs(predicted[0] - born_plus), abs(predicted[1] - (1.0 - born_plus))
            )
        return {"check": check, "pairs": args.pairs, "max_error": worst}

    if check in ("classify", "epsilon"):
        if family is not None:
            first, second = _qubit_pair_at_fidelity(rng, args.fidelity)
            model = model_from_parametric(family, {"q0": first, "q1": second})
        else:
            model = _load_model(args)
        labels = sorted(model.preparations)
        if check == "classify":
            verdict = classify(model, labels)
            return {
                "check": check,
                "verdict": verdict.verdict,
                "pair": list(verdict.pair) if verdict.pair else None,
                "overlap": verdict.overlap,
            }
        report = epsilon_overlap(model, labels)
        return {
            "check": check,
            "epsilon": report.epsilon,
            "witness_count": len(report.witness_lambdas),
        }

    if check == "nogo":
        model = _load_model(args)
        labels = sorted(model.preparations)
        rows = []
        for m in sorted(model.responses):
            if model.responses[m].shape[1] < len(labels):
                continue
            res = nogo_check(model, labels, m)
            rows.append(
                {
                    "measurement": m,
                    "lhs": res.lhs,
                    "epsilon": res.epsilon,
                    "inequality_holds": res.inequality_holds,
                }
            )
        return {"check": check, "results": rows}

    if check == "continuity":
        center = _CENTERS[args.center]()
        report = delta_continuity_probe(
            family, center, args.delta, args.samples, seed=args.seed
        )
        return {
            "check": check,
            "delta": report.delta,
            "n_samples": report.n_samples,
            "common_support_size": len(report.common_support),
            "empirical_epsilon": report.empirical_epsilon,
            "verdict": report.verdict,
        }
    raise UsageError(f"unknown check {check!r}")


def cmd_orbit(args) -> str:
    if not 0.0 < args.theta <= np.pi:
        raise UsageError("--theta must lie in (0, pi]")
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if args.grid < 100:
        raise UsageError("--grid must be >= 100")
    if not 0.0 < args.tol <= np.pi:
        raise UsageError("--tol must lie in (0, pi]")
    if args.rotations < 4:
        raise UsageError("--rotations must be >= 4")
    if not MIN_DEDUP_TOLERANCE <= args.dedup_tol <= np.pi:
        raise UsageError(f"--dedup-tol must lie in [{MIN_DEDUP_TOLERANCE:g}, pi]")
    trajectory = coverage_trajectory(
        initial_cloud(args.theta, args.dedup_tol), args.grid, args.tol, args.seed,
        step=orbit_step, measure=coverage,  # this module's names, which perfbench traces
        rotations_per_pair=args.rotations,
    )
    rows = list(islice(trajectory, args.steps + 1))
    if args.format == "csv":
        lines = ["step,cloud_size,coverage"]
        lines += [f"{k},{size},{cov:.6f}" for k, size, cov in rows]
        return _render_csv(args, "\n".join(lines) + "\n")
    results = {
        "trajectory": [
            {"step": k, "cloud_size": size, "coverage": cov} for k, size, cov in rows
        ],
        "final_coverage": rows[-1][2],
        "final_cloud_size": rows[-1][1],
    }
    return _render_json(args, results)


def cmd_scaling(args) -> str:
    if not 0.0 < args.delta < 1.0:
        raise UsageError("--delta must lie in (0, 1)")
    report = scaling_report(args.delta)
    results = {
        "delta_target": report.delta_target,
        "thm1_dim": report.thm1_dim,
        "thm2_copies_d3": report.thm2_copies_d3,
        "pbr_copies": report.pbr_copies,
        "pbr_state_count": report.pbr_state_count,
        "notes": report.notes,
    }
    return _render_json(args, results)


def cmd_exclusion(args) -> str:
    if args.restarts < 1:
        raise UsageError("--restarts must be >= 1")
    with open(args.states, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "kind" in payload:
        states = ensemble_from_json(payload).states
    elif isinstance(payload, dict) and "states" in payload:
        states = tuple(state_from_json(o) for o in payload["states"])
    elif isinstance(payload, list):
        states = tuple(state_from_json(o) for o in payload)
    else:
        raise UsageError(
            f"{args.states}: expected a state list, a {{'states': [...]}} object,"
            " or an ensemble object"
        )
    problem = ExclusionProblem(states)
    result = optimize(
        problem, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
    )
    results = result_to_json(result)
    results["state_count"] = len(states)
    return _render_json(args, results)


def cmd_sweep(args) -> str:
    if not args.dims:
        raise UsageError("--dims must be nonempty")
    if not args.copies:
        raise UsageError("--copies must be nonempty")
    if args.family == "thm1":
        if min(args.dims) < 2:
            raise UsageError("thm1 dims must be >= 2")
        factory = lambda d, n: theorem1_ensemble(d)  # noqa: E731
    else:
        if min(args.dims) < 3:
            raise UsageError("thm2 dims must be >= 3")
        factory = theorem2_ensemble
    noise = _protocol_noise(args)
    grid = [(d, n) for d in args.dims for n in args.copies]
    rows = sweep(factory, grid, noise, args.shots, args.confidence, args.seed)
    if args.format == "json":
        return _render_json(args, {"rows": rows})
    return _render_csv(args, sweep_to_csv(rows))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"psigauge {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ContractViolation) as exc:
        print(f"psigauge {args.command}: contract violation: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
