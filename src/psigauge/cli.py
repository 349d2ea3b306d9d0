"""Command-line front end.

Subcommands: thm1, thm2, thm4, model, orbit, scaling, exclusion, sweep.
Each flag is declared once, as a row of FLAG_RULES that holds its argparse
options and its range: build_parser reads the table to declare the flags, and
check_flags reads it to test every range and every rule between flags before
any handler runs. main declares only the invoked subcommand's rows;
build_parser() with no command declares them all, for top-level help.
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
    theorem2_span_ensemble,
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
    _boundary_fidelity,
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


def _config(args) -> dict:
    skip = {"handler", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _render_json(args, results: dict) -> str:
    """The report's envelope, byte-equal to json.dumps(envelope, indent=2,
    sort_keys=True, allow_nan=False) + "\n", and like it, ValueError for a
    NaN or an infinity. An indent sends json.dumps through its pure-Python
    encoder, so :func:`_write_json` lays out the nesting and leaves every
    list of numbers to one compact call of the C encoder."""
    envelope = {
        "tool": "psigauge",
        "version": __version__,
        "command": args.command,
        "config": _config(args),
        "results": results,
    }
    out = []
    _write_json(envelope, "\n", out)
    return "".join(out) + "\n"


def _numbers(value) -> bool:
    """value is a nonempty list of ints and floats; a bool is neither type."""
    types = isinstance(value, (list, tuple)) and {*map(type, value)}
    return bool(types) and types <= {int, float}


def _write_json(value, newline: str, out: list) -> None:
    """Append value's indent=2, sort_keys=True JSON to out; ``newline`` is a
    line break plus the indent of the line the value starts on. A list of
    numbers, or of such lists (the counts), is one compact json.dumps, laid
    out by replacing its separators, since no number holds ", " or "], [".
    """
    inner = newline + "  "
    if _numbers(value):
        numbers = json.dumps(value, allow_nan=False)[1:-1].replace(", ", "," + inner)
        out.append("[" + inner + numbers + newline + "]")
    elif isinstance(value, (list, tuple)) and value and all(map(_numbers, value)):
        deeper = inner + "  "
        between_rows = f"{inner}],{inner}[{deeper}"
        rows = json.dumps(value, allow_nan=False)[2:-2].replace("], [", between_rows)
        out.append(f"[{inner}[{deeper}{rows.replace(', ', ',' + deeper)}{inner}]{newline}]")
    elif isinstance(value, dict) and value:
        out.append("{")
        for key, item in sorted(value.items()):
            key = key if isinstance(key, str) else json.dumps(key, allow_nan=False)
            out.append(inner + json.encoder.encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            out.append(",")
        out[-1] = newline + "}"  # in place of the last comma
    elif isinstance(value, (list, tuple)) and value:
        out.append("[")
        for item in value:
            out.append(inner)
            _write_json(item, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    else:
        out.append(json.dumps(value, allow_nan=False))


def _render_csv(args, csv_text: str) -> str:
    header = json.dumps(_config(args), sort_keys=True)
    return f"# psigauge {__version__} {args.command} {header}\n{csv_text}"


def _protocol_report(args, ensemble, **fields) -> str:
    """The finite-shot exclusion run of thm1 and thm2, reported with dim, the
    radius it certifies (n_copy_delta_star for an n-copy run) and fields."""
    noise = NoiseSpec(args.noise_p, args.noise_q)
    report = run_protocol(ensemble, noise, args.shots, args.confidence, args.seed)
    radius = ensemble.params.get("n_copy_delta_star", ensemble.delta_star)
    fields.update(dim=args.dim, delta_star=radius)
    return _render_json(args, {**report_to_json(report), **fields})


def cmd_thm1(args) -> str:
    return _protocol_report(args, theorem1_ensemble(args.dim))


def cmd_thm2(args) -> str:
    ensemble = theorem2_span_ensemble(args.dim, args.copies)
    p, gamma = ensemble.params, gamma_coefficient(args.dim)
    return _protocol_report(args, ensemble, copies=p["n"], delta_nd=p["delta_nd"], gamma_d=gamma,
                            n_delta_over_gamma=p["n"] * p["delta_nd"] / gamma)


def cmd_thm4(args) -> str:
    t = _boundary_fidelity(args.dim) if args.t is None else args.t
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
    checks = args.check or ["validate"]
    if args.builtin == "ks":
        model = ks_qubit_model(args.grid)
        results["model"] = {"builtin": "ks", "lambda_count": model.lambda_count}
    else:
        try:
            model = model_from_json(_read_json(args.file))
        except ValueError as exc:  # validate reports it; every other check raises it
            if set(checks) != {"validate"}:
                raise
            model = exc
    results["checks"] = [{"check": name, **MODEL_CHECKS[name](args, model)} for name in checks]
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
        if model.responses[m].shape[1] == len(labels)
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
    factory = (theorem2_span_ensemble if args.family == "thm2"
               else lambda d, n: theorem1_ensemble(d))
    noise = NoiseSpec(args.noise_p, args.noise_q)
    grid = [(d, n) for d in args.dims for n in args.copies]
    rows = sweep(factory, grid, noise, args.shots, args.confidence, args.seed)
    if args.format == "json":
        return _render_json(args, {"rows": rows})
    return _render_csv(args, sweep_to_csv(rows))


# a dense d-outcome measurement holds d*d amplitudes, kept within TENSOR_CAP
MAX_DIM = math.isqrt(TENSOR_CAP)
PROTOCOL = ("thm1", "thm2", "sweep")
_SOURCE = "model source"  # the model parser's required group of exclusive sources


COMMANDS = {
    "thm1": (cmd_thm1, "exclusion ensemble in dimension d"),
    "thm2": (cmd_thm2, "n-copy separable-model ensemble"),
    "thm4": (cmd_thm4, "tunable-overlap family with basis exclusion"),
    "model": (cmd_model, "ontic-model checks"),
    "orbit": (cmd_orbit, "rotation-orbit sphere filling"),
    "scaling": (cmd_scaling, "resource requirements at a target radius"),
    "exclusion": (cmd_exclusion, "optimize a measurement against a state file"),
    "sweep": (cmd_sweep, "protocol runs over a parameter grid"),
}

# Every flag of the CLI, as (subcommands, flag, add_argument options,
# predicate on the parsed args, message). build_parser declares the rows with
# options in table order, which is the --help order: for main, only the rows
# of the invoked subcommand (and the _SOURCE rows for model); with no command,
# all of them. A string default goes through the flag's type. check_flags
# tests the rows with a predicate in the same order and stops at the first
# false one, so a row may assume that the rows above it hold. Messages are
# formatted with the parsed flags. A row without options adds a range, or a
# rule between flags, to a flag above it.
FLAG_RULES = (
    (("thm1", "thm4"), "--dim", dict(type=int, default=3),
     lambda a: 2 <= a.dim <= MAX_DIM, f"must lie in [2, {MAX_DIM}]"),
    (("thm2",), "--dim", dict(type=int, default=3),
     lambda a: 3 <= a.dim <= MAX_DIM, f"must lie in [3, {MAX_DIM}]"),
    (("thm4",), "--t", dict(type=float, help="center overlap (default max)"),
     lambda a: a.t is None or 0.0 < a.t <= _boundary_fidelity(a.dim) + 1e-12,
     "must lie in (0, sqrt((d - 1)/d)] for --dim d = {dim}"),
    (("thm2",), "--copies", dict(type=int, default=2),
     lambda a: 1 <= a.copies <= TENSOR_CAP, f"must lie in [1, {TENSOR_CAP}]"),
    (("sweep",), "--family", dict(choices=("thm1", "thm2"), default="thm1"), None, None),
    (("sweep",), "--dims", dict(type=_int_list, default="2,3,4,5,6"),
     lambda a: a.dims, "must be nonempty"),
    (("sweep",), "--dims", None, lambda a: max(a.dims) <= MAX_DIM, f"must be <= {MAX_DIM}"),
    (("sweep",), "--copies", dict(type=_int_list, default="1"),
     lambda a: a.copies, "must be nonempty"),
    (("sweep",), "--copies", None, lambda a: 1 <= min(a.copies) and max(a.copies) <= TENSOR_CAP,
     f"must lie in [1, {TENSOR_CAP}]"),
    ((_SOURCE,), "--builtin", dict(choices=("ks",)), None, None),
    ((_SOURCE,), "--file", dict(), None, None),
    (("model",), "--grid", dict(type=int, default=10_000, help="lattice size for --builtin ks"),
     lambda a: 100 <= a.grid <= TENSOR_CAP, f"must lie in [100, {TENSOR_CAP}]"),
    (("model",), "--check",
     dict(action="append", choices=tuple(MODEL_CHECKS), help="repeatable; default validate"),
     None, None),
    # pairs, restarts and iterations only drive loops: the bound turns a typo
    # into a usage error instead of a run without end
    (("model",), "--pairs", dict(type=int, default=100, help="sampled pairs for reproduce"),
     lambda a: 1 <= a.pairs <= TENSOR_CAP, f"must lie in [1, {TENSOR_CAP}]"),
    (("model",), "--fidelity", dict(type=float, default=0.9, help="pair fidelity for classify"),
     lambda a: 0.0 <= a.fidelity <= 1.0, "must lie in [0, 1]"),
    (("model",), "--delta", dict(type=float, default=0.25, help="ball radius for continuity"),
     lambda a: 0.0 < a.delta <= 1.0, "must lie in (0, 1]"),
    (("model",), "--center", dict(choices=sorted(_CENTERS), default="plus"), None, None),
    # samples only drive the probe loop, which draws each seed sequence when it evaluates it
    (("model",), "--samples", dict(type=int, default=200, help="ball samples for continuity"),
     lambda a: 1 <= a.samples <= TENSOR_CAP, f"must lie in [1, {TENSOR_CAP}]"),
    (("orbit",), "--theta", dict(type=float, required=True),
     lambda a: 0.0 < a.theta <= math.pi, "must lie in (0, pi]"),
    # islice takes at most sys.maxsize items, and the trajectory has steps + 1
    (("orbit",), "--steps", dict(type=int, default=4),
     lambda a: 0 <= a.steps <= sys.maxsize - 1, f"must lie in [0, {sys.maxsize - 1}]"),
    (("orbit",), "--grid", dict(type=int, default=4000),
     lambda a: 100 <= a.grid <= TENSOR_CAP, f"must lie in [100, {TENSOR_CAP}]"),
    (("orbit",), "--tol", dict(type=float, default=0.05, help="angular coverage tolerance"),
     lambda a: 0.0 < a.tol <= math.pi, "must lie in (0, pi]"),
    # each orbit step allocates one candidate point per rotation and pair
    (("orbit",), "--rotations", dict(type=int, default=24),
     lambda a: 4 <= a.rotations <= TENSOR_CAP, f"must lie in [4, {TENSOR_CAP}]"),
    (("orbit",), "--dedup-tol", dict(type=float, default=0.02),
     lambda a: MIN_DEDUP_TOLERANCE <= a.dedup_tol <= math.pi,
     f"must lie in [{MIN_DEDUP_TOLERANCE:g}, pi]"),
    (("orbit",), "--format", dict(choices=("json", "csv"), default="json"), None, None),
    (("scaling",), "--delta", dict(type=float, required=True),
     lambda a: MIN_SCALING_DELTA <= a.delta < 1.0, f"must lie in [{MIN_SCALING_DELTA:g}, 1)"),
    (("exclusion",), "--states", dict(required=True, help="JSON file of states"), None, None),
    (("exclusion",), "--restarts", dict(type=int, default=20),
     lambda a: 1 <= a.restarts <= TENSOR_CAP, f"must lie in [1, {TENSOR_CAP}]"),
    (("exclusion",), "--max-iters", dict(type=int, default=500),
     lambda a: 1 <= a.max_iters <= TENSOR_CAP, f"must lie in [1, {TENSOR_CAP}]"),
    # numpy's multinomial draws take the shot count as an int64
    (PROTOCOL, "--shots", dict(type=int, default=100_000, help="shots per preparation"),
     lambda a: 1 <= a.shots <= 2**63 - 1, "must lie in [1, 2**63 - 1]"),
    (PROTOCOL, "--noise-p", dict(type=float, default=0.0, help="depolarizing weight"),
     lambda a: 0.0 <= a.noise_p <= 1.0, "must lie in [0, 1]"),
    (PROTOCOL, "--noise-q", dict(type=float, default=0.0, help="outcome flip weight"),
     lambda a: 0.0 <= a.noise_q <= 1.0, "must lie in [0, 1]"),
    (PROTOCOL, "--confidence", dict(type=float, default=0.95),
     lambda a: 0.0 < a.confidence < 1.0, "must lie in (0, 1)"),
    (("sweep",), "--format", dict(choices=("csv", "json"), default="csv"), None, None),
    (COMMANDS, "--seed", dict(type=_seed), None, None),  # default set by build_parser
    (COMMANDS, "--out", dict(help="write report to PATH"), None, None),
    # rules between flags
    (("thm4",), "--t", None, lambda a: a.t is None or a.dim > 2 or 1.0 - 2.0 * a.t**2 <= 1e-12,
     "must be sqrt(1/2), the only real family, at --dim 2"),
    (("model",), "--check", None,
     lambda a: a.builtin is not None or not {"reproduce", "continuity"} & set(a.check or ()),
     "reproduce and continuity need --builtin ks (a rule-based model)"),
    (("model",), "--check", None, lambda a: a.builtin is None or "nogo" not in (a.check or ()),
     "nogo needs --file with measurement tables"),
    (("orbit",), "--theta", None, lambda a: a.theta > a.dedup_tol, "must exceed --dedup-tol"),
    (("sweep",), "--dims", None, lambda a: min(a.dims) >= (2 if a.family == "thm1" else 3),
     "must be >= 2 for --family thm1 and >= 3 for --family thm2"),
    # the thm1 family has no copy count: each of its rows reads copies 1
    (("sweep",), "--copies", None, lambda a: a.family == "thm2" or a.copies == [1],
     "must be 1 for --family thm1"),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand when command names one, else of them all
    (for top-level help, --version and a missing or unknown command)."""
    parser = _Parser(prog="psigauge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"psigauge {__version__}")
    chosen, listed = COMMANDS, {}
    if command in COMMANDS:
        # the usage line still lists every choice; the full parser keeps
        # argparse's own metavar, which its error messages read
        chosen, listed = {command: COMMANDS[command]}, {"metavar": "{" + ",".join(COMMANDS) + "}"}
    subs = parser.add_subparsers(dest="command", required=True, **listed)
    seed = os.environ.get("PSI_GAUGE_SEED", "0")  # read here, not at import
    targets = {}
    for name, (handler, text) in chosen.items():
        targets[name] = subs.add_parser(name, help=text)
        targets[name].set_defaults(handler=handler, seed=seed)
    if "model" in targets:
        targets[_SOURCE] = targets["model"].add_mutually_exclusive_group(required=True)
    for commands, flag, options, _, _ in FLAG_RULES:
        for target in commands if options is not None else ():
            if target in targets:
                targets[target].add_argument(flag, **options)
    return parser


def check_flags(args) -> None:
    """Raise UsageError, naming the flag, at the first FLAG_RULES row whose
    predicate the parsed args break."""
    for commands, flag, _, ok, message in FLAG_RULES:
        if ok is not None and args.command in commands and not ok(args):
            raise UsageError(f"{flag} {message.format(**vars(args))}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
