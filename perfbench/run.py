"""Benchmark of the stableorders CLI, run in-process by one closed-loop client.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Each workload is a seeded list of ``stableorders.cli.main(argv)`` calls (see
``workloads.py``).  One client sends each call only after the previous one
returns, with stdout and stderr captured in memory; every answer is checked
afterwards, outside the timed call.  The list is run in whole passes until
``--seconds`` have gone by.  Each pass starts from a fresh import of the
package, so caches that live across calls (``lru_cache`` tables and the like)
start cold in every pass and fill only from calls within it; an operation
marked ``fresh`` gets a fresh import of its own, as a new process would.

The host's speed drifts by up to a factor of two over seconds to tens of
seconds, alike for all interpreter-bound work.  So a fixed calibration
kernel is timed between operations, and every reported time is scaled to a
host on which that kernel takes KERNEL_REFERENCE_S; the unscaled figures are
printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run (see ``tracing.py``).  Run from the root of a checkout of the
repository: the package is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
# Operations that must lie beyond the reported tail percentile, per pass.
TAIL_BEYOND = 10
# The calibration kernel runs again once this much time has passed.
PROBE_EVERY_S = 0.05
# Reported times are those of a host that runs the calibration kernel in
# this time, about its median over a minute on a 2-core Xeon at 2.0 GHz.
KERNEL_REFERENCE_S = 0.0035

# Run in a fresh interpreter: time the import, then the calibration kernel
# four times, the first as warm-up.
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import stableorders.cli\n"
    "seconds = time.perf_counter() - start\n"
    "exec('import argparse\\n' + sys.argv[2])\n"
    "runs = []\n"
    "for _ in range(4):\n"
    "    start = time.perf_counter()\n"
    "    _kernel()\n"
    "    runs.append(time.perf_counter() - start)\n"
    "print(seconds, sorted(runs[1:])[1])\n"
)


def _kernel():
    """Fixed work like the CLI's own: build a parser with subcommands and
    parse one command line, twice.  Its speed tracks the CLI's across the
    host's speed changes more closely than plain loops do."""
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="kernel")
        commands = parser.add_subparsers(dest="command", required=True)
        for name in ("alpha", "beta", "gamma", "delta"):
            command = commands.add_parser(name, help=f"the {name} command")
            command.add_argument("--poset", required=True)
            command.add_argument("left")
            command.add_argument("right")
            command.add_argument("--format", choices=("text", "json"), default="text")
            command.add_argument("--cap", type=int, default=5)
        parsed = parser.parse_args(["gamma", "--poset", "A", "x1", "x2", "--cap", "7"])
    return parsed


class SpeedProbe:
    """Times the calibration kernel every PROBE_EVERY_S during a pass.  Each
    operation's time is scaled by KERNEL_REFERENCE_S / (median of the two
    kernel times before it and the one after), which follows the host's
    speed changes within a pass; per-layer times use the median over the
    whole pass."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def maybe_sample(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            start = time.perf_counter()
            _kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)

    def scale(self):
        return KERNEL_REFERENCE_S / statistics.median(self.samples)

    def local_scales(self, marks):
        """The scale of each operation, given the index of the last sample
        taken before it."""
        return [KERNEL_REFERENCE_S / statistics.median(self.samples[max(0, j - 1):j + 2])
                for j in marks]


def measure_setup():
    """Median time to import stableorders.cli in a fresh interpreter, each
    scaled by the kernel time of its interpreter, over SETUP_SAMPLES
    interpreters after one that writes the bytecode cache."""
    kernel_source = inspect.getsource(_kernel)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC), kernel_source],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, kernel = map(float, done.stdout.split())
        samples.append((seconds * KERNEL_REFERENCE_S / kernel, seconds))
    scaled, raw = zip(*samples[1:])
    print(f"setup_s unscaled {statistics.median(raw):.4g} s")
    return statistics.median(scaled)


def fresh_cli(tracer=None):
    """Import stableorders.cli anew, dropping every module of the package,
    and let the tracer wrap it."""
    for name in [m for m in sys.modules if m == "stableorders" or m.startswith("stableorders.")]:
        del sys.modules[name]
    gc.collect()
    cli = importlib.import_module("stableorders.cli")
    if tracer is not None:
        tracer.install()
    return cli


def call(cli, argv):
    """One operation: (exit code or None, stdout, escaped exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a failed operation
            code, escaped = None, exc
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), escaped, elapsed


class Pass:
    """The outcome of running the operation list once."""

    def __init__(self):
        self.probe = SpeedProbe()
        self.latencies = []  # seconds as measured
        self.marks = []  # per operation, the last probe sample before it
        self.scales = []  # per operation, filled in when the pass ends
        self.failures = []  # (op index, reason)
        self.wrong = []  # answers the checks rejected
        self.stdout_bytes = 0
        self.digest = hashlib.sha256()


def run_pass(ops, tracer=None):
    cli = fresh_cli(tracer)
    result = Pass()
    for i, op in enumerate(ops):
        if op.fresh and i:
            cli = fresh_cli(tracer)
        result.probe.maybe_sample()
        result.marks.append(len(result.probe.samples) - 1)
        if tracer is not None:
            tracer.begin_op(i)
        code, out, escaped, elapsed = call(cli, op.argv)
        result.latencies.append(elapsed)
        result.stdout_bytes += len(out.encode())
        result.digest.update(f"{i}:{code}:{len(out)}\n".encode() + out.encode())
        if escaped is not None:
            result.failures.append((i, f"{type(escaped).__name__}: {str(escaped)[:100]}"))
        elif code != op.code:
            result.failures.append((i, f"exit code {code}, expected {op.code}"))
        else:
            problem = op.check(out)
            if problem:
                result.failures.append((i, f"wrong answer: {problem}"))
                result.wrong.append(i)
    result.probe.maybe_sample()
    result.scales = result.probe.local_scales(result.marks)
    return result


def run_passes(ops, seconds, kinds=(None,)):
    """Whole passes until `seconds` have gone by, taking the kinds in turn
    and each at least once; a kind is a tracer class, or None for an
    untraced pass."""
    passes, start = [], time.perf_counter()
    for kind in itertools.cycle(kinds):
        if len(passes) >= len(kinds) and time.perf_counter() - start >= seconds:
            return passes
        tracer = kind() if kind else None
        passes.append((run_pass(ops, tracer), tracer))


def tail_percentile(per_pass):
    """The highest whole percentile with at least TAIL_BEYOND operations of
    every pass beyond it."""
    return max(1, min(99, math.floor(100 * (per_pass - TAIL_BEYOND) / per_pass)))


def op_latencies(ops, passes, scaled=True):
    """Each operation's latency: the median of its timings, one per pass, so
    a burst of host speed or slowness covering less than half the passes
    does not move it."""
    return [statistics.median(p.latencies[i] * (p.scales[i] if scaled else 1) for p, _ in passes)
            for i in range(len(ops))]


def end_to_end(ops, passes, setup_s):
    """The end-to-end metrics; the latency metrics are taken over the
    operations' latencies."""
    per_op, raw = op_latencies(ops, passes), op_latencies(ops, passes, scaled=False)
    print(f"unscaled: ops_per_s {len(ops) / sum(raw):.4g}, op_p50_ms {statistics.median(raw) * 1000:.4g}; "
          f"scale factors " + " ".join(f"{p.probe.scale():.3f}" for p, _ in passes))
    pct = tail_percentile(len(ops))
    tail = statistics.quantiles(per_op, n=100, method="inclusive")[pct - 1]
    print(f"latency of each operation: median of its {len(passes)} timings; "
          f"op_tail_ms is p{pct} over {len(ops)} operations")
    failed = sum(len(p.failures) for p, _ in passes)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (failed / (len(ops) * len(passes)), "fraction"),
    }


def per_layer(ops, seconds):
    """Untraced and traced passes in turn until `seconds` have gone by; the
    per-layer metrics are medians over the traced passes.  Returns (metrics,
    every pass)."""
    passes = run_passes(ops, seconds, (None, tracing.Tracer))
    untraced = [(p, t) for p, t in passes if t is None]
    traced = [(p, t) for p, t in passes if t is not None]
    per_pass = [tracer.metrics(result.stdout_bytes, result.probe.scale()) for result, tracer in traced]
    plain_latency = op_latencies(ops, untraced)
    plain = len(ops) / sum(plain_latency)
    slow = len(ops) / sum(op_latencies(ops, traced))
    print(f"tracing overhead: ops_per_s {slow:.4g} traced against {plain:.4g} untraced, "
          f"ratio {slow / plain:.2f}")
    result, tracer = traced[0]
    residual = tracer.op_coverage(result.latencies)
    print(f"per operation, time outside every span: median {statistics.median(residual):.2%}, "
          f"largest {max(residual):.2%} of the operation")
    self_by_layer = per_pass[0][1]
    total = sum(self_by_layer.values())
    print("self time by layer, first traced pass: " + ", ".join(
        f"{layer} {self_by_layer[layer]:.3f} s ({self_by_layer[layer] / total:.0%})"
        for layer in tracing.LAYERS))
    if any(op.kind == "count" for op in ops):
        for row in tracing.curve(ops, plain_latency, tracer):
            print("curve", json.dumps(row))
    metrics = {name: (statistics.median(v[name] for v, _ in per_pass), unit)
               for name, unit in tracing.METRICS}
    return metrics, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stableorders" / "cli.py").is_file():
        print(f"error: no stableorders sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ops = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"list digest {workloads.digest(ops)}")
    if args.trace:
        metrics, passes = per_layer(ops, args.seconds)
    else:
        setup_s = measure_setup()
        passes = run_passes(ops, args.seconds)
        metrics = end_to_end(ops, passes, setup_s)

    for k, (p, _) in enumerate(passes, start=1):
        print(f"pass {k}: {len(p.latencies)} operations in {sum(p.latencies):.3f} s, "
              f"{len(p.failures)} failed")
    for i, reason in passes[0][0].failures:
        print(f"failed op #{i} [{ops[i].kind}] {' '.join(ops[i].argv)[:90]} -> {reason}")
    digests = {p.digest.hexdigest()[:16] for p, _ in passes}
    print(f"stdout digest {' '.join(sorted(digests))} over {len(passes)} passes")
    print(json.dumps({
        "correct": len(digests) == 1 and not any(p.wrong for p, _ in passes),
        "attempted": sum(len(p.latencies) for p, _ in passes),
        "failed": sum(len(p.failures) for p, _ in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
