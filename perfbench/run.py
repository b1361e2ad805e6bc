"""Run one fishburn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload formal --seed 1 --seconds 10 --trace 0

Run from anywhere; the library is imported from ``src/`` beside this
directory and nowhere else.  The workload's inputs come from ``--seed``
(see workloads.py).  Operations run one at a time in a closed loop, in one
process with no extra threads; the ``cli`` workload runs each command as a
``python -m fishburn.cli`` subprocess.  The batch repeats until ``--seconds``
have passed (at least once), and every output is checked.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``wall_s``: one pass of the batch, until every result is checked: each
  operation's median over the passes, summed.
- ``setup_s``: the median of several fresh interpreters doing what a user does
  before the first call (importing, building the registry and fields); for
  ``cli``, the wall time of ``python -c "import fishburn.cli"``.
- ``peak_rss_mb``: peak resident memory of this process, plus the largest
  child for ``cli``.

The two times are given at reference machine speed.  On a shared machine the
same code runs at speeds that swing by tens of percent within seconds and
drift over minutes, and a run's median can land on either side of such a
swing.  So a fixed calibration kernel that uses nothing from fishburn is
timed before every operation (and every set-up sample) and once at the end,
and each operation's time is scaled by the kernel's reference time
(``REFERENCE_KERNEL_S``) over the median of the two samples before it and
the two after it.  The speed is measured per operation because it swings
between fast and slow states that last seconds; the median of four because
one sample alone misreads the speed by about 8% (the spread of two samples
taken milliseconds apart on a shared 2-vCPU Xeon VM).  A change to the library moves the
operations and not the kernel.  The process is pinned to one CPU, so the
``cli`` subprocesses run where the kernel runs.  Raw operation and kernel
times are kept in the result file.

Failures (wrong or mismatched results, unexpected exceptions or exit codes)
are the ``failed`` count over ``attempted`` operations; their ratio is the
workload's fail ratio (see report.py).

``--trace 1`` first runs untraced passes, then traced ones with every layer
wrapped at runtime (tracer.py), and reports the per-layer metrics per traced
pass plus ``trace.overhead_ratio``.  The ``cli`` traced run calls
``fishburn.cli.main`` in-process with stdout captured; ``cli.spawn_s`` is the
subprocess pass minus the untraced in-process pass.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics).  A fuller record -- environment stamp, inputs, per-operation times,
failures, and for traced runs the spans -- goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
SETUP_SAMPLES = 11
REFERENCE_KERNEL_S = 0.008  # the kernel's time on the reference machine state
CHILD_TIMEOUT_S = 150
MAX_RECORDED_FAILURES = 20

sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402


def import_library():
    """The fishburn package from this checkout's src/, or exit non-zero."""
    if not (SRC / "fishburn" / "__init__.py").is_file():
        raise SystemExit(f"error: no fishburn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fishburn
    if Path(fishburn.__file__).resolve().parent != SRC / "fishburn":
        raise SystemExit(f"error: imported fishburn from {fishburn.__file__}, not {SRC}")
    return fishburn


def child_env():
    env = dict(os.environ)
    env.pop("FISHBURN_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload, env, is_cli) -> float:
    """Median set-up time of fresh interpreters, at reference speed; for `cli`
    the whole interpreter start counts, as every command pays it."""
    samples, kernel = [], []
    for _ in range(SETUP_SAMPLES):
        kernel.append(calibration_kernel())
        if is_cli:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", workload.setup_code], cwd=ROOT, env=env,
                           check=True, timeout=CHILD_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
        else:
            code = ("import time\nt0 = time.perf_counter()\n"
                    f"{workload.setup_code}\nprint(time.perf_counter() - t0)")
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  check=True, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            samples.append(float(proc.stdout.split()[-1]))
    kernel.append(calibration_kernel())
    return statistics.median(at_reference_speed(samples, kernel))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op) -> float:
        """Run and check one operation; returns its wall time."""
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # any unexpected exception is a failed operation
            if op.refusal is None or not isinstance(exc, op.refusal):
                error = f"{type(exc).__name__}: {exc}"
        else:
            if op.refusal is not None:
                error = f"returned instead of raising {op.refusal.__name__}"
            else:
                try:
                    op.check(result)
                except Mismatch as exc:
                    error = str(exc)
                except Exception as exc:  # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append({"op": op.name, "error": error})
        return elapsed


# A permutation of 4096 slots (32 KB, cache resident) for the kernel's
# dependent-load chain.
CHAIN = array("l", [(i * 2053 + 1) % 4096 for i in range(4096)])


def calibration_kernel() -> float:
    """Fixed pure-Python work that uses nothing from fishburn.  Returns its
    wall time.

    Fraction arithmetic, a tuple-keyed dict convolution of ints and a
    recursive generator walk follow the library's mix.  On their own they
    slow down more than the library when the machine is contended (on a
    shared 2-vCPU Xeon VM: by 1.7x where the workloads slowed by 1.3x to
    1.6x), so a chain of dependent array loads, which slows down less, makes
    up about two thirds of the time."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    terms = {(i, j): i - j for i in range(12) for j in range(12 - i)}
    product = {}
    for ea, ca in terms.items():
        for eb, cb in terms.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            if e[0] + e[1] <= 12:
                product[e] = product.get(e, 0) + ca * cb

    def walk(n, left):
        if n == 0:
            yield left
            return
        for v in range(left + 1):
            yield from walk(n - 1, left - v)

    sum(1 for _ in walk(5, 8))
    slot = 0
    for _ in range(60000):
        slot = CHAIN[slot]
    return time.perf_counter() - t0


def run_passes(workload, seconds, tally, runner=None):
    """Repeat the batch until `seconds` have passed.  Returns the operations'
    wall times per pass and the calibration kernel's times: one before each
    operation and one after the last, so they sample the whole phase."""
    passes, kernel = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = workload.ops(runner)
        times = []
        try:
            for op in ops:
                kernel.append(calibration_kernel())
                times.append(tally.run(op))
        finally:
            workload.end_pass()
        passes.append(times)
    kernel.append(calibration_kernel())
    return {"seconds": passes, "kernel_seconds": kernel}


def at_reference_speed(durations, kernel_seconds):
    """Each duration scaled to the reference machine state: times the
    kernel's reference time over the median of the two kernel samples before
    it and the two after it, fewer at the ends (`kernel_seconds` has one
    sample before each duration and one after the last)."""
    return [t * REFERENCE_KERNEL_S / statistics.median(kernel_seconds[max(0, i - 1):i + 3])
            for i, t in enumerate(durations)]


def pass_seconds(phase) -> float:
    """One pass at reference speed: each operation's median over the passes,
    summed.  The median drops the samples whose speed was misjudged because
    the machine changed state in the middle of a long operation."""
    durations = [t for times in phase["seconds"] for t in times]
    scaled = at_reference_speed(durations, phase["kernel_seconds"])
    per_pass = len(phase["seconds"][0])
    passes = [scaled[i:i + per_pass] for i in range(0, len(scaled), per_pass)]
    return sum(statistics.median(column) for column in zip(*passes))


def subprocess_runner(env):
    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "fishburn.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout
    return run


def in_process_runner(cli):
    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)  # looked up per call, so the traced wrapper is used
        return code, out.getvalue()
    return run


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment():
    import mpmath
    import mpmath.libmp
    digest = hashlib.sha256()
    for path in sorted((SRC / "fishburn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
    }


def measure(workload, args, tally):
    """Metrics by name, and the per-phase operation times."""
    env = child_env()
    is_cli = workload.name == "cli"
    runner = subprocess_runner(env) if is_cli else None
    if not args.trace:
        setup_s = measure_setup(workload, env, is_cli)
        passes = run_passes(workload, args.seconds, tally, runner)
        metrics = {"wall_s": pass_seconds(passes), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb(children=is_cli)}
        return metrics, {"untraced": passes}, None
    if is_cli:
        in_process = in_process_runner(importlib.import_module("fishburn.cli"))
        third = args.seconds / 3
        spawned = run_passes(workload, third, tally, runner)
        baseline = run_passes(workload, third, tally, in_process)
        with Tracer() as tracer:
            traced = run_passes(workload, third, tally, in_process)
        phases = {"subprocess": spawned, "in_process": baseline, "traced": traced}
        spawn_s = pass_seconds(spawned) - pass_seconds(baseline)
    else:
        half = args.seconds / 2
        baseline = run_passes(workload, half, tally)
        with Tracer() as tracer:
            traced = run_passes(workload, half, tally)
        phases = {"untraced": baseline, "traced": traced}
        spawn_s = 0.0
    metrics = layer_metrics(tracer.spans, tracer.counts, len(traced["seconds"]))
    metrics["cli.spawn_s"] = spawn_s
    metrics["trace.overhead_ratio"] = pass_seconds(traced) / pass_seconds(baseline)
    return metrics, phases, tracer


def write_spans(path, spans, env):
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "names": names,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": [[index[s[0]], s[1], s[2], s[3]] for s in spans]}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])  # children inherit the same CPU

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    fishburn = import_library()
    os.environ.pop("FISHBURN_CACHE_DIR", None)
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"),
                                        fishburn, str(WORK))
    exec(workload.setup_code, {})  # lazy set-up happens before any timed pass
    tally = Tally()
    metrics, phases, tracer = measure(workload, args, tally)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} do not match "
                         "BENCHMARK.json")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": reported}

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": workload.inputs,
              "operations": workload.op_names(), "op_seconds": phases,
              "failures": tally.failures, **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        write_spans(OUT / f"{args.workload}-spans.json", tracer.spans, env)

    for failure in tally.failures:
        print(f"FAILED {failure['op']}: {failure['error']}")
    for name, m in reported.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
