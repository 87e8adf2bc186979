"""Benchmark of the invcycle verifier.

    python3 perfbench/run.py --workload certificates --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, and `tests/oracles.py` serves the output checks.  One worker
process (this one) runs the workload's ops through `invcycle.cli.main`
in a closed loop with one client, whole blocks at a time, for at least
`--seconds` seconds after a short warm-up.  It then times a fixed sample
of the same ops as `python -m invcycle` subprocesses, one at a time, and
the import of the package in fresh interpreters.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
runs each op once traced and once untraced, alternating the order, and
reports the per-layer metrics of `tracer.py` plus the tracing overhead.
Every op's output is checked (`checks.py`).  The last stdout line is one
JSON object: correct, attempted, failed, metrics.  The exit code is 0
when every check passed, 1 when one failed, 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Checker, load_digests  # noqa: E402

# The subprocess sample is the first CLI_SAMPLE ops of the stream; each is
# paired with one fresh interpreter that times the package import.
CLI_SAMPLE = 16
PROBE_BATCHES = 4
# A run measures at least this many in-process ops, so that at least 12
# lie beyond op_ms.p90 even when the host is slow.
MIN_OPS = 128
# ops_per_s leaves out the slowest 2% of ops: a multi-second overlattice
# enumeration comes about once in 200 certificates, and whether a run
# draws none or three of them moved the plain rate by a third.
THROUGHPUT_TRIM = 0.02
WARMUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 120

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import invcycle\n"
    "print(time.perf_counter() - t, invcycle.__file__)\n"
)


def load_program():
    """Import `invcycle` from this checkout's `src/` and the checks' oracles."""
    if not (SRC / "invcycle" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"perfbench: no invcycle sources under {ROOT}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("invcycle.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported invcycle from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return cli, oracles


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(cli, argv) -> tuple[float, object, str, str]:
    """One in-process `verify` call with stdout and stderr captured in memory.

    Returns (seconds, exit code, stdout, stderr).  An exception escaping
    `cli.main` is a failed op, not a crash of the benchmark: its
    traceback goes to stderr and the exit code is None.
    """
    out, err = io.StringIO(), io.StringIO()
    escaped = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        escaped = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue() + escaped


class Worker:
    """Runs ops in-process or as subprocesses and checks every output."""

    def __init__(self, cli, checker: Checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, op) -> tuple[float, object]:
        """Run one op through `cli.main`; returns (seconds, exit code)."""
        elapsed, code, stdout, stderr = invoke(self.cli, op.argv)
        self.record(op, code, stdout, stderr)
        return elapsed, code

    def record(self, op, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        reason = self.checker.check(op, code, stdout, stderr)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op.argv)[:120]}: {reason}")


class Shares:
    """Share of the measured ops with each behaviour-relevant property."""

    def __init__(self):
        self.ops = self.repeated = self.square_factor = self.exit1 = 0
        self._seen: set[str] = set()

    def add(self, op, code) -> None:
        self.ops += 1
        self.repeated += op.key in self._seen
        self._seen.add(op.key)
        self.square_factor += workloads.SQUARE_FACTOR in op.props
        self.exit1 += code == 1

    def describe(self) -> str:
        n = max(self.ops, 1)
        return (
            f"shares of {self.ops} measured ops: repeated input {self.repeated / n:.3f}, "
            f"square factor reaching overlattice enumeration {self.square_factor / n:.3f}, "
            f"exit 1 {self.exit1 / n:.3f}"
        )


def warm_up(worker: Worker, workload: str, seed: int, workdir: Path) -> None:
    """Untimed ops from a separate stream, so that the measured inputs are fresh."""
    ops = workloads.stream(workload, -1 - seed, workdir)
    deadline = time.perf_counter() + WARMUP_SECONDS
    for count in range(1000):
        if count >= 2 and time.perf_counter() > deadline:
            break
        worker.call(next(ops))


def measure(worker: Worker, ops, block: int, seconds: float, shares: Shares, probes=()):
    """Closed loop, one client: whole blocks until `seconds` have passed and MIN_OPS ops ran.

    Returns the per-op latencies.  A block holds one draw from each stratum
    of the workload, so any whole number of blocks has the workload's mix.
    The `probes` (callables) run between blocks in PROBE_BATCHES batches
    spread evenly over the window, so that every kind of sample sees the
    same mix of fast and slow spells of a shared machine while few
    in-process ops follow a probe; batches not yet due when the window
    closes run after it.
    """
    latencies: list[float] = []
    per_batch = math.ceil(len(probes) / PROBE_BATCHES)
    start = time.perf_counter()
    done = 0
    while (now := time.perf_counter()) < start + seconds or len(latencies) < MIN_OPS:
        due = min(len(probes), per_batch * math.ceil(PROBE_BATCHES * (now - start) / seconds))
        for probe in probes[done:due]:
            probe()
        done = max(done, due)
        for _ in range(block):
            op = next(ops)
            elapsed, code = worker.call(op)
            shares.add(op, code)
            latencies.append(elapsed)
    for probe in probes[done:]:
        probe()
    return latencies


def setup_probe(env) -> float:
    """Time `import invcycle` inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if proc.returncode != 0 or not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-200:]}")
    return float(seconds)


def cli_probe(worker: Worker, op, env) -> float:
    """Spawn-to-exit wall time of `python -m invcycle <argv>`."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "invcycle", *op.argv], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, stdout, stderr = None, "", "timeout"
    elapsed = time.perf_counter() - start
    worker.record(op, code, stdout, stderr)
    return elapsed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(worker: Worker, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    env = child_env()
    sample_stream = workloads.stream(workload, seed, workdir)
    sample = [next(sample_stream) for _ in range(CLI_SAMPLE)]
    cli_times: list[float] = []
    setup_times: list[float] = []
    probes = []
    for op in sample:
        probes.append(lambda op=op: cli_times.append(cli_probe(worker, op, env)))
        probes.append(lambda: setup_times.append(setup_probe(env)))
    warm_up(worker, workload, seed, workdir)
    shares = Shares()
    latencies = measure(
        worker, workloads.stream(workload, seed, workdir), workloads.BLOCK[workload], seconds, shares, probes
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [t * 1e3 for t in latencies]
    kept = sorted(latencies)[: len(latencies) - math.ceil(THROUGHPUT_TRIM * len(latencies))]
    print(
        f"{workload} seed {seed}: {len(ms)} in-process ops in blocks of {workloads.BLOCK[workload]}, "
        f"{sum(latencies):.2f} s busy ({len(ms) / sum(latencies):.2f} ops/s untrimmed); "
        f"{len(cli_times)} subprocess ops and {len(setup_times)} setup probes interleaved"
    )
    print(shares.describe())
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(kept) / sum(kept), "1/s"),
        "op_ms.p50": metric(statistics.median(ms), "ms"),
        "op_ms.p90": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "cli_ms.p50": metric(statistics.median(cli_times) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }


def run_traced(worker: Worker, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from tracer import PRINT_ONLY, SPAN_FIELDS, Tracer

    tracer = Tracer()
    warm_up(worker, workload, seed, workdir)
    ops = workloads.stream(workload, seed, workdir)
    shares = Shares()
    traced_s = untraced_s = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or shares.ops < MIN_OPS:
        for _ in range(workloads.BLOCK[workload]):
            op = next(ops)
            # Alternate which run of the op comes first, so neither gets warmer caches.
            for traced in (True, False) if shares.ops % 2 == 0 else (False, True):
                if not traced:
                    untraced_s += worker.call(op)[0]
                    continue
                tracer.op_id = shares.ops
                tracer.install()
                try:
                    elapsed, code = worker.call(op)
                finally:
                    tracer.uninstall()
                traced_s += elapsed
            shares.add(op, code)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-{seed}.tsv")
    layer = tracer.summary(shares.ops)
    layer["trace.overhead_ratio"] = traced_s / untraced_s - 1
    print(
        f"{workload} seed {seed}: {shares.ops} ops run traced and untraced, "
        f"{len(tracer.spans) // SPAN_FIELDS} spans, "
        f"{traced_s:.2f} s traced vs {untraced_s:.2f} s untraced"
    )
    print(shares.describe())
    reported = {}
    for name, value in layer.items():
        last = name.rsplit(".", 1)[-1]
        unit = "ms" if last in ("ms", "self_ms") else "1" if "ratio" in last else "count"
        if name in PRINT_ONLY:
            print(f"  {name:<55} {value:>14.6g} {unit}  (printed only)")
        else:
            reported[name] = metric(value, unit)
    return reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, oracles = load_program()
    worker = Worker(cli, Checker(oracles, load_digests()))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics = run(worker, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"ops checked {worker.attempted}, failed {worker.failed} "
        f"(failed_ratio {worker.failed / max(worker.attempted, 1):.4f}), "
        f"recorded digests matched {worker.checker.digest_hits}"
    )
    for reason in worker.failures:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    correct = worker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": worker.attempted,
        "failed": worker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
