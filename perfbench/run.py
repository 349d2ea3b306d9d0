"""psigauge benchmark: one closed-loop client driving the CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {protocol,search,orbit} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed list of ``psigauge.cli.main(argv)`` invocations
generated from the seed (see workloads.py). One pass runs the list once,
each call starting after the previous one returns, with stdout captured.
After a warm-up pass, passes repeat until ``--seconds`` have gone by.
Every output is checked by an independent oracle (oracles.py), and every
oracle must reject a deliberately corrupted copy of the warm-up output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from passes run with tracing wrappers (tracing.py).
The last stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: fresh interpreters timed per run for setup_s (one more runs first, untimed,
#: so bytecode compilation is not charged to every launch)
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
# build_parser is looked up, not required, so the launch still measures the
# import if the parser factory is ever renamed
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); import psigauge.cli as cli;"
    " getattr(cli, 'build_parser', lambda: None)()"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas() -> tuple:
    """BLAS library name and its thread count as numpy's OpenBLAS reports it."""
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_times(launches: int) -> list:
    """Wall time of fresh interpreters importing psigauge.cli and building
    the parser, the start-up every CLI user pays."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_pass(main, calls) -> tuple:
    """Run every call once, in order; return the wall time and the
    (exit code, stdout, stderr) of each call."""
    gc.collect()
    outputs = []
    start = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        outputs.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def problems_of(call, code, out: str, err: str) -> list:
    if code != 0:
        return [f"exit code {code}: {err.strip()[-300:]}"]
    if "Traceback" in err:
        return ["traceback on stderr"]
    try:
        return call.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


class Tally:
    """Counts attempted and failed invocations. Identical outputs are
    judged once. A failure of a call marked with a known defect is counted
    apart, as long as the call itself ran to a clean exit."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems = {}  # call index -> problems of its first failure
        self._seen = {}

    def add(self, outputs) -> None:
        for index, (call, (code, out, err)) in enumerate(zip(self.calls, outputs)):
            key = (index, code, out, err)
            if key not in self._seen:
                self._seen[key] = problems_of(call, code, out, err)
            problems = self._seen[key]
            self.attempted += 1
            if not problems:
                continue
            if call.known_defect and code == 0:
                self.known += 1
            else:
                self.failed += 1
            self.problems.setdefault(index, problems)


def self_check(calls, outputs) -> list:
    """Corrupt each warm-up output and require its oracle to reject it."""
    escaped = []
    for call, (code, out, _) in zip(calls, outputs):
        if code != 0:
            continue
        try:
            corrupted = call.corrupt(out)
        except (ValueError, KeyError, TypeError, IndexError):
            continue  # the output is unreadable and already counts as failed
        if not problems_of(call, 0, corrupted, ""):
            escaped.append(" ".join(call.argv))
    return escaped


def passes_until(main, calls, tally, deadline: float) -> list:
    """Timed passes until the deadline; at least one."""
    samples = []
    while not samples or time.perf_counter() < deadline:
        seconds, outputs = run_pass(main, calls)
        samples.append(seconds)
        tally.add(outputs)
    return samples


def traced_passes(main, calls, tally, deadline: float) -> tuple:
    """Alternate untraced and traced passes until the deadline, so both see
    the same machine. Return the untraced and the traced pass times, the
    per-layer metrics of each traced pass, the spans of the last one, and
    the binding sites the tracer could not find."""
    tracer = tracing.Tracer()
    untraced, traced, per_pass, spans = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        seconds, outputs = run_pass(main, calls)
        untraced.append(seconds)
        tally.add(outputs)
        traced_main = tracer.install(main)
        try:
            seconds, outputs = run_pass(traced_main, calls)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        traced.append(seconds)
        tally.add(outputs)
        per_pass.append(tracing.per_layer_metrics(tracing.layer_sums(spans)))
    return untraced, traced, per_pass, spans, tracer.skipped


def spread(samples: list) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (f"n={len(samples)} min={min(samples):.4f} q1={q1:.4f}"
            f" q3={q3:.4f} max={max(samples):.4f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psigauge" / "cli.py").is_file():
        return fail(f"no psigauge sources at {SRC / 'psigauge'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    from psigauge import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return fail(f"psigauge was imported from {cli.__file__}, not from {SRC}")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup = [] if args.trace else setup_times(SETUP_LAUNCHES)

    WORK.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        calls = WORKLOADS[args.workload](args.seed, inputs)
        tally = Tally(calls)
        _, warm = run_pass(cli.main, calls)
        tally.add(warm)
        escaped = self_check(calls, warm)

        deadline = time.perf_counter() + args.seconds
        metrics = {}
        if args.trace:
            samples, traced, per_pass, spans, skipped = traced_passes(
                cli.main, calls, tally, deadline
            )
            for site in skipped:
                print(f"trace: {site} not found; its spans are missing")
            for name in per_pass[0]:
                metrics[name] = statistics.median(p[name] for p in per_pass)
            metrics.update(tracing.import_times(str(ROOT), IMPORTTIME_LAUNCHES))
            # each traced pass runs right after an untraced one: pairing cancels drift
            ratios = [t / u for t, u in zip(traced, samples)]
            metrics["trace.overhead"] = statistics.median(ratios) - 1
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracing.write_spans(str(trace_path), spans)
            print(f"traced pass_s {statistics.median(traced):.4f} s ({spread(traced)});"
                  f" spans of the last traced pass in {trace_path.relative_to(ROOT)}")
        else:
            samples = passes_until(cli.main, calls, tally, deadline)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["pass_s"] = statistics.median(samples)
        metrics["failed_frac"] = (tally.failed + tally.known) / tally.attempted
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {len(calls)} invocations per pass, {tally.attempted} attempted,"
          f" {tally.failed} failed, {tally.known} failed on a known defect")
    if setup:
        print(f"  setup_s samples: {spread(setup)}")
    print(f"  pass_s samples: {spread(samples)}")
    for name in ("setup_s", "pass_s", "peak_rss_mb", "failed_frac"):
        if name in metrics:
            print(f"  {name:<12} {metrics[name]:.6g} {units[name]}")
    for index, problems in sorted(tally.problems.items()):
        call = calls[index]
        label = f"known defect ({call.known_defect})" if call.known_defect else "FAILED"
        print(f"  {label}: {' '.join(call.argv)}: {'; '.join(problems)}")
    for argv in escaped:
        print(f"  SELF-CHECK FAILED: the oracle accepted a corrupted output of {argv}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    result = {
        "correct": tally.failed == 0 and not escaped,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
