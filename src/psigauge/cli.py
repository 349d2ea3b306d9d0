"""Command-line front end.

Subcommands: thm1, thm2, thm4, model, orbit, scaling, exclusion, sweep.
Exit codes: 0 success, 1 usage error (a flag outside its FLAG_RULES range,
or an unreadable file), 2 numerical-contract violation.
Reports go to stdout unless --out is given. Every payload embeds the tool
version and the full flag configuration; nothing embeds a timestamp, so
identical invocations produce byte-identical output.

The seed flag defaults to the PSI_GAUGE_SEED environment variable when it
is set, and to 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import islice

import numpy as np

from . import __version__
from ._geometry import bloch_from_state
from .ensembles import (
    MIN_SCALING_DELTA,
    gamma_coefficient,
    scaling_report,
    states_from_json,
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
    TENSOR_CAP,
    ContractViolation,
    StateVector,
    _amplitudes,
    haar_state,
    inner,
    normalized,
    pair_at_fidelity,
)

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
        "--check", action="append", choices=tuple(MODEL_CHECKS),
        help="repeatable; default validate",
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


# a dense d-outcome measurement holds d*d amplitudes, kept within TENSOR_CAP
MAX_DIM = math.isqrt(TENSOR_CAP)
PROTOCOL = ("thm1", "thm2", "sweep")


def _within_cap(base: int, exponent: int) -> bool:
    """base**exponent <= TENSOR_CAP for base >= 2, never computing a huge power."""
    return exponent <= TENSOR_CAP.bit_length() and base**exponent <= TENSOR_CAP


# Every flag range of the CLI, as (subcommands, flag, predicate on the parsed
# args, message). check_flags tests the rows in order and stops at the first
# false predicate, so a row may assume that the rows above it hold. Messages
# are formatted with the parsed flags.
FLAG_RULES = (
    # numpy's multinomial draws take the shot count as an int64
    (PROTOCOL, "--shots", lambda a: 1 <= a.shots <= 2**63 - 1, "must lie in [1, 2**63 - 1]"),
    (PROTOCOL, "--confidence", lambda a: 0.0 < a.confidence < 1.0, "must lie in (0, 1)"),
    (PROTOCOL, "--noise-p", lambda a: 0.0 <= a.noise_p <= 1.0, "must lie in [0, 1]"),
    (PROTOCOL, "--noise-q", lambda a: 0.0 <= a.noise_q <= 1.0, "must lie in [0, 1]"),
    (("thm1", "thm4"), "--dim", lambda a: 2 <= a.dim <= MAX_DIM, f"must lie in [2, {MAX_DIM}]"),
    (("thm2",), "--dim", lambda a: a.dim >= 3, "must be >= 3"),
    (("thm2",), "--copies", lambda a: a.copies >= 1, "must be >= 1"),
    (("thm2",), "--dim**--copies", lambda a: _within_cap(a.dim, a.copies),
     f"= {{dim}}**{{copies}} exceeds the cap of {TENSOR_CAP}"),
    (("thm4",), "--t",
     lambda a: a.t is None or 0.0 < a.t <= math.sqrt((a.dim - 1) / a.dim) + 1e-12,
     "must lie in (0, sqrt((d - 1)/d)] for --dim d = {dim}"),
    (("thm4",), "--t", lambda a: a.t is None or a.dim > 2 or 1.0 - 2.0 * a.t**2 <= 1e-12,
     "must be sqrt(1/2), the only real family, at --dim 2"),
    (("model",), "--check",
     lambda a: a.builtin is not None or not {"reproduce", "continuity"} & set(a.check or ()),
     "reproduce and continuity need --builtin ks (a rule-based model)"),
    (("model",), "--check", lambda a: a.builtin is None or "nogo" not in (a.check or ()),
     "nogo needs --file with measurement tables"),
    (("model", "orbit"), "--grid", lambda a: 100 <= a.grid <= TENSOR_CAP,
     f"must lie in [100, {TENSOR_CAP}]"),
    (("model",), "--pairs", lambda a: a.pairs >= 1, "must be >= 1"),
    (("model",), "--fidelity", lambda a: 0.0 <= a.fidelity <= 1.0, "must lie in [0, 1]"),
    (("model",), "--delta", lambda a: 0.0 < a.delta <= 1.0, "must lie in (0, 1]"),
    # the continuity probe spawns one seed sequence per sample up front
    (("model",), "--samples", lambda a: 1 <= a.samples <= TENSOR_CAP,
     f"must lie in [1, {TENSOR_CAP}]"),
    (("orbit",), "--theta", lambda a: 0.0 < a.theta <= math.pi, "must lie in (0, pi]"),
    # islice takes at most sys.maxsize items, and the trajectory has steps + 1
    (("orbit",), "--steps", lambda a: 0 <= a.steps <= sys.maxsize - 1,
     f"must lie in [0, {sys.maxsize - 1}]"),
    (("orbit",), "--tol", lambda a: 0.0 < a.tol <= math.pi, "must lie in (0, pi]"),
    # each orbit step allocates one candidate point per rotation and pair
    (("orbit",), "--rotations", lambda a: 4 <= a.rotations <= TENSOR_CAP,
     f"must lie in [4, {TENSOR_CAP}]"),
    (("orbit",), "--dedup-tol", lambda a: MIN_DEDUP_TOLERANCE <= a.dedup_tol <= math.pi,
     f"must lie in [{MIN_DEDUP_TOLERANCE:g}, pi]"),
    (("orbit",), "--theta", lambda a: a.theta > a.dedup_tol, "must exceed --dedup-tol"),
    (("scaling",), "--delta", lambda a: MIN_SCALING_DELTA <= a.delta < 1.0,
     f"must lie in [{MIN_SCALING_DELTA:g}, 1)"),
    (("exclusion",), "--restarts", lambda a: a.restarts >= 1, "must be >= 1"),
    (("exclusion",), "--max-iters", lambda a: a.max_iters >= 1, "must be >= 1"),
    (("sweep",), "--dims", lambda a: a.dims, "must be nonempty"),
    (("sweep",), "--dims", lambda a: min(a.dims) >= (2 if a.family == "thm1" else 3),
     "must be >= 2 for --family thm1 and >= 3 for --family thm2"),
    (("sweep",), "--dims", lambda a: max(a.dims) <= MAX_DIM, f"must be <= {MAX_DIM}"),
    (("sweep",), "--copies", lambda a: a.copies, "must be nonempty"),
    (("sweep",), "--copies", lambda a: min(a.copies) >= 1, "must be >= 1"),
    (("sweep",), "--dims**--copies",
     lambda a: a.family == "thm1" or _within_cap(max(a.dims), max(a.copies)),
     f"with --family thm2 must keep max(dims)**max(copies) within {TENSOR_CAP}"),
)


def check_flags(args) -> None:
    """Raise UsageError, naming the flag, at the first FLAG_RULES row that
    the parsed args break."""
    for commands, flag, ok, message in FLAG_RULES:
        if args.command in commands and not ok(args):
            raise UsageError(f"{flag} {message.format(**vars(args))}")


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


def cmd_thm1(args) -> str:
    noise = NoiseSpec(args.noise_p, args.noise_q)
    ensemble = theorem1_ensemble(args.dim)
    report = run_protocol(ensemble, noise, args.shots, args.confidence, args.seed)
    results = report_to_json(report)
    results["dim"] = args.dim
    results["delta_star"] = ensemble.delta_star
    return _render_json(args, results)


def cmd_thm2(args) -> str:
    noise = NoiseSpec(args.noise_p, args.noise_q)
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
    t = float(np.sqrt((args.dim - 1) / args.dim)) if args.t is None else args.t
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
        "zero_amplitude_max": float(np.abs(_amplitudes(states).diagonal()).max()),
    }
    return _render_json(args, results)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_model(args) -> str:
    results = {}
    if args.builtin == "ks":
        model = ks_qubit_model(args.grid)
        results["model"] = {"builtin": "ks", "lambda_count": model.lambda_count}
    else:
        try:
            model = model_from_json(_read_json(args.file))
        except ValueError as exc:  # validate reports it; every other check raises it
            model = exc
    results["checks"] = []
    for name in args.check or ["validate"]:
        if isinstance(model, ValueError) and name != "validate":
            raise model
        results["checks"].append({"check": name, **MODEL_CHECKS[name](args, model)})
    return _render_json(args, results)


def _tabulated(args, model):
    """The file's tables, or the built-in rules on a Haar pair at --fidelity."""
    if not args.builtin:
        return model
    first, second = pair_at_fidelity(2, args.fidelity, np.random.default_rng(args.seed))
    return model_from_parametric(model, {"q0": first, "q1": second})


def _check_validate(args, model) -> dict:
    if isinstance(model, ValueError):
        return {"passed": False, "diagnostic": str(model)}
    detail = model.description if args.builtin else {
        "lambda_count": model.lambda_count,
        "preparations": sorted(model.preparations),
        "measurements": sorted(model.responses),
    }
    return {"passed": True, "detail": detail}


def _check_reproduce(args, model) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.pairs):
        state = haar_state(2, rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        predicted = model.predict(state, axis)
        born_plus = (1.0 + bloch_from_state(state) @ axis) / 2.0
        worst = max(worst, abs(predicted[0] - born_plus), abs(predicted[1] - (1.0 - born_plus)))
    return {"pairs": args.pairs, "max_error": worst}


def _check_classify(args, model) -> dict:
    table = _tabulated(args, model)
    return asdict(classify(table, sorted(table.preparations)))


def _check_epsilon(args, model) -> dict:
    table = _tabulated(args, model)
    report = epsilon_overlap(table, sorted(table.preparations))
    return {"epsilon": report.epsilon, "witness_count": len(report.witness_lambdas)}


def _check_nogo(args, model) -> dict:
    labels = sorted(model.preparations)
    return {"results": [
        {"measurement": m, **asdict(nogo_check(model, labels, m))}
        for m in sorted(model.responses)
        if model.responses[m].shape[1] >= len(labels)
    ]}


def _check_continuity(args, model) -> dict:
    center = _CENTERS[args.center]()
    report = delta_continuity_probe(model, center, args.delta, args.samples, seed=args.seed)
    return {
        "delta": report.delta,
        "n_samples": report.n_samples,
        "common_support_size": len(report.common_support),
        "empirical_epsilon": report.empirical_epsilon,
        "verdict": report.verdict,
    }


# each check maps (args, model) to its report, model being the built-in rules,
# the file's tables, or (validate only) the ValueError that kept the file from
# loading. A check that draws starts a fresh generator at --seed.
MODEL_CHECKS = {
    "validate": _check_validate,
    "reproduce": _check_reproduce,
    "classify": _check_classify,
    "epsilon": _check_epsilon,
    "nogo": _check_nogo,
    "continuity": _check_continuity,
}


def cmd_orbit(args) -> str:
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
    return _render_json(args, asdict(scaling_report(args.delta)))


def cmd_exclusion(args) -> str:
    try:
        states = states_from_json(_read_json(args.states))
    except TypeError as exc:  # a document of none of the three shapes
        raise UsageError(f"{args.states}: {exc}") from None
    problem = ExclusionProblem(states)
    result = optimize(
        problem, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
    )
    results = result_to_json(result)
    results["state_count"] = len(states)
    return _render_json(args, results)


def cmd_sweep(args) -> str:
    factory = theorem2_ensemble if args.family == "thm2" else lambda d, n: theorem1_ensemble(d)
    noise = NoiseSpec(args.noise_p, args.noise_q)
    grid = [(d, n) for d in args.dims for n in args.copies]
    rows = sweep(factory, grid, noise, args.shots, args.confidence, args.seed)
    if args.format == "json":
        return _render_json(args, {"rows": rows})
    return _render_csv(args, sweep_to_csv(rows))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_flags(args)
        text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, OSError) as exc:
        print(f"psigauge {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ContractViolation) as exc:
        print(f"psigauge {args.command}: contract violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
