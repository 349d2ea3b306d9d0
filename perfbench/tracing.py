"""Per-layer tracing from outside the program.

The benchmark wraps the public functions of each psigauge module where the
CLI (or another module) looks them up, because ``from x import f`` copies
the binding: patching ``x.f`` alone would miss the caller's copy. Each
wrapper records a span (name, start, end, parent) in memory; the spans of
one pass are folded into per-layer sums, and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import statistics
import subprocess
import sys
import time

# (module, attribute, span name): every binding site the CLI reaches
WRAPS = (
    ("psigauge.experiment", "validate_povm", "qcore.validate_povm"),
    ("psigauge.exclusion", "validate_povm", "qcore.validate_povm"),
    ("psigauge.ensembles", "born_prob", "qcore.born_prob"),
    ("psigauge.experiment", "born_prob", "qcore.born_prob"),
    ("psigauge.exclusion", "born_prob", "qcore.born_prob"),
    ("psigauge.ontic", "born_prob", "qcore.born_prob"),
    ("psigauge.ensembles", "tensor_power", "qcore.tensor_power"),
    ("psigauge.ensembles", "unitary_from_correspondence", "qcore.unitary_from_correspondence"),
    ("psigauge.cli", "theorem1_ensemble", "ensembles.build"),
    ("psigauge.cli", "theorem2_ensemble", "ensembles.build"),
    ("psigauge.cli", "theorem4_ensemble", "ensembles.build"),
    ("psigauge.ensembles", "theorem1_ensemble", "ensembles.build"),
    ("psigauge.cli", "ensemble_from_json", "ensembles.from_json"),
    ("psigauge.cli", "run_protocol", "experiment.run_protocol"),
    ("psigauge.experiment", "run_protocol", "experiment.run_protocol"),
    ("psigauge.experiment", "noisy_outcome_distribution", "experiment.outcome_dist"),
    ("psigauge.experiment", "_clopper_pearson_upper", "experiment.clopper_pearson"),
    ("psigauge.cli", "optimize", "exclusion.optimize"),
    ("psigauge.exclusion", "expm", "exclusion.expm"),
    ("psigauge.cli", "exclusion_value", "exclusion.exclusion_value"),
    ("psigauge.cli", "ks_qubit_model", "ontic.ks_build"),
    ("psigauge.cli", "delta_continuity_probe", "ontic.continuity_probe"),
    ("psigauge.ontic", "sample_state_in_ball", "ontic.sample_state_in_ball"),
    ("psigauge.cli", "nogo_check", "ontic.nogo_check"),
    ("psigauge.cli", "classify", "ontic.classify"),
    ("psigauge.cli", "epsilon_overlap", "ontic.epsilon_overlap"),
    ("psigauge.ontic", "epsilon_overlap", "ontic.epsilon_overlap"),
    ("psigauge.cli", "model_from_json", "ontic.model_from_json"),
    ("psigauge.cli", "orbit_step", "orbit.step"),
    ("psigauge.orbit", "rodrigues_rotate", "orbit.rotate"),
    ("psigauge.cli", "coverage", "orbit.coverage"),
)

CLI_SPAN = "cli.main"
PREP_RULE_SPAN = "ontic.prep_rule"

# modules whose cumulative import time ``python -X importtime`` reports
IMPORT_MODULES = {
    "qcore.import_s": ("psigauge.qcore",),
    "ensembles.import_s": ("psigauge.ensembles",),
    "experiment.import_s": ("psigauge.experiment",),
    "exclusion.import_s": ("psigauge.exclusion",),
    "ontic.import_s": ("psigauge.ontic",),
    "orbit.import_s": ("psigauge.orbit",),
    "scipy.stats.import_s": ("scipy.stats",),
    # everything ``import psigauge.cli`` costs: the package, then the module
    "cli.import_s": ("psigauge", "psigauge.cli"),
}


def _effect_bytes(povm) -> int:
    return int(sum(e.entries.nbytes for e in povm.effects))


# counts taken at a span boundary, from argument and result sizes
EXTRAS = {
    "qcore.validate_povm": lambda args, result: {"bytes": _effect_bytes(args[0])},
    "ensembles.build": lambda args, result: {"effect_bytes": _effect_bytes(result.measurement)},
    "exclusion.optimize": lambda args, result: {
        "restarts_used": result.restarts_used,
        "history_len": len(result.history),
    },
    "orbit.step": lambda args, result: {"points_in": args[0].size, "points_out": result.size},
    "orbit.rotate": lambda args, result: {"candidates": result.size // 3},
}


class Tracer:
    """Span recorder. Spans are [name, start, end, parent, extras] lists;
    ``parent`` indexes the enclosing span in the same pass, or is -1.
    The wrappers exist only between ``install`` and ``uninstall``, so
    untraced passes run the program untouched."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.skipped = []
        self._patched = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        extras = EXTRAS.get(name)
        wrap_rule = name == "ontic.ks_build"

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extras is not None:
                try:
                    span[4] = extras(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a signature the program no longer has yields no counts
            if wrap_rule and dataclasses.is_dataclass(result):
                rule = self._wrap(result.preparation_rule, PREP_RULE_SPAN)
                result = dataclasses.replace(result, preparation_rule=rule)
            return result

        return traced

    def install(self, main):
        """Patch every binding site; return ``main`` wrapped as the CLI span.
        Sites missing from the program are listed in ``skipped``."""
        self.skipped = []
        for module_name, attr, name in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))
        return self._wrap(main, CLI_SPAN)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new pass."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_sums(spans: list) -> dict:
    """Per-name call counts, total and self seconds, and summed extras."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    sums = {}
    for i, (name, start, end, _, extras) in enumerate(spans):
        entry = sums.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
        for key, value in (extras or {}).items():
            entry[key] = entry.get(key, 0) + value
    return sums


def per_layer_metrics(sums: dict) -> dict:
    """The per-layer metric values of one pass, by BENCHMARK.json name."""

    def get(name: str, key: str):
        return sums.get(name, {}).get(key, 0)

    out = {}
    for name, keys in (
        ("qcore.validate_povm", ("calls", "s", "bytes")),
        ("qcore.born_prob", ("calls", "s")),
        ("qcore.tensor_power", ("s",)),
        ("qcore.unitary_from_correspondence", ("s",)),
        ("ensembles.build", ("calls", "self_s")),
        ("ensembles.from_json", ("s",)),
        ("experiment.run_protocol", ("calls", "self_s")),
        ("experiment.outcome_dist", ("calls", "self_s")),
        ("experiment.clopper_pearson", ("calls", "s")),
        ("exclusion.optimize", ("calls", "s")),
        ("exclusion.expm", ("calls", "s")),
        ("exclusion.exclusion_value", ("s",)),
        ("ontic.ks_build", ("s",)),
        ("ontic.prep_rule", ("calls", "s")),
        ("ontic.continuity_probe", ("self_s",)),
        ("ontic.sample_state_in_ball", ("calls", "s")),
        ("ontic.nogo_check", ("s",)),
        ("ontic.classify", ("s",)),
        ("ontic.epsilon_overlap", ("s",)),
        ("ontic.model_from_json", ("s",)),
        ("orbit.step", ("calls", "s", "self_s")),
        ("orbit.rotate", ("s",)),
        ("orbit.coverage", ("calls", "s")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = get(name, key)
    out["ensembles.effect_bytes"] = get("ensembles.build", "effect_bytes")
    out["exclusion.restarts_used"] = get("exclusion.optimize", "restarts_used")
    out["exclusion.winner_history_len"] = get("exclusion.optimize", "history_len")
    candidates = get("orbit.rotate", "candidates")
    points_in = get("orbit.step", "points_in")
    points_out = get("orbit.step", "points_out")
    out["orbit.candidates"] = candidates
    out["orbit.points_out"] = points_out
    out["orbit.keep_ratio"] = points_out / (candidates + points_in) if candidates else 0.0
    out["cli.self_s"] = get(CLI_SPAN, "self_s")
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(root: str, launches: int) -> dict:
    """Median cumulative import seconds per module over fresh interpreters
    running ``python -X importtime`` on ``import psigauge.cli``."""
    samples = {key: [] for key in IMPORT_MODULES}
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; sys.path.insert(0, 'src'); import psigauge.cli"],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(4) not in cumulative:
                cumulative[match.group(4)] = int(match.group(2)) * 1e-6
        for key, modules in IMPORT_MODULES.items():
            samples[key].append(sum(cumulative.get(m, 0.0) for m in modules))
    return {key: statistics.median(values) for key, values in samples.items()}


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, extras) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            if extras:
                record.update(extras)
            fh.write(json.dumps(record) + "\n")
