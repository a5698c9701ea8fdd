"""Benchmark of the mavik fitter, one workload per process.

    python3 perfbench/run.py --workload fit-numeric --seed 0 --seconds 20 --trace 0

Workloads: fit-numeric, fit-coeff, replay, retrieval (see workloads.py).
The run builds the workload ``SETUP_REPS`` times from ``--seed`` (set-up),
then repeats the workload's measured pass until ``--seconds`` have passed;
a pass that has started always completes.  Every operation's output is
checked.  mavik is imported from ``src/`` next to this directory, with BLAS
and mavik pinned to one thread before numpy is loaded.  Times are reported
in reference seconds (see ``SpeedProbe``).

End-to-end metrics: ``setup_s`` (median set-up), ``pass_s`` (sum of each
operation's median time), ``op_p50_ms`` (median of those medians) and
``peak_rss_mb`` (peak resident memory of the process).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of spans.py,
including the tracing overhead.  The result is the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it show the same metrics, the time
per operation kind and the run environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single-threaded reference: the machine the benchmark targets has 2 cores.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "MAVIK_THREADS": "1",
}

SETUP_REPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, key, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)


def import_mavik():
    """Put the checkout's ``src/`` first on the path and import mavik from it."""
    if not (SRC / "mavik" / "__init__.py").is_file():
        raise SystemExit(f"error: no mavik sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mavik

    if not Path(mavik.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: mavik imported from {mavik.__file__}, not {SRC}")
    return mavik


class SpeedProbe:
    """Converts elapsed seconds into reference seconds.

    The benchmark's host shares its cores with other machines, and the
    speed it gives one process drifts: the same fit-numeric pass took 1.4 s
    to 2.4 s within two minutes, in CPU time as in wall time.  A fixed probe
    -- interpreter work and small numpy operations, like the fit loop's and
    independent of mavik -- runs after every timed operation.  An
    operation's time is multiplied by ``REF_PROBE_S`` over the mean of the
    probes just before and after it: its duration at the speed at which the
    probe takes ``REF_PROBE_S``.  The probe tracks contention for the core
    well and contention for memory less well, so it steadies the fit
    workloads more than replay.
    """

    ITERATIONS = 500
    READS = 3
    REF_PROBE_S = 0.0022  # a typical reading on a 2-vCPU Xeon at 2.0 GHz

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((40, 40))
        self._vector = rng.standard_normal(200)
        self._last = self.reading()

    def probe(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(self.ITERATIONS):
            acc += float((self._vector * (i + 1.0)) @ self._vector)
            acc += float((self._matrix @ self._matrix[:, i % 40]).sum())
        return time.perf_counter() - start

    def reading(self):
        # The fastest of a few probes: one run right after a large operation
        # pays for cold caches, which is not the machine's speed.
        return min(self.probe() for _ in range(self.READS))

    def scale(self, elapsed):
        """Reference seconds of an operation that took ``elapsed`` seconds
        and ended just now."""
        before, self._last = self._last, self.reading()
        return elapsed * 2.0 * self.REF_PROBE_S / (before + self._last)


@dataclass
class Timing:
    kind: str
    seconds: float  # reference seconds
    raw: float  # elapsed seconds


def run_pass(ops, refs, tally, probe, tracer=None):
    """Run every operation once; returns one Timing per operation."""
    from mavik.errors import MavikError

    times = []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
            tracer.open("op." + op.kind)
        start = time.perf_counter()
        try:
            out = op.call()
        except MavikError as exc:
            out = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
        times.append(Timing(op.kind, probe.scale(elapsed), elapsed))
        if isinstance(out, MavikError):
            tally.add(op.key, [f"{type(out).__name__}: {out}"])
        else:
            tally.add(op.key, op.check(out, refs[op.key]))
        del out  # freed here, not inside the next operation's timing
    return times


def op_medians(passes, field="seconds"):
    """Each operation's median time across passes."""
    columns = zip(*[[getattr(t, field) for t in p] for p in passes])
    return [statistics.median(col) for col in columns]


def typical_pass(passes, field="seconds"):
    """Time of a typical pass: a slow stretch of the machine inflates the
    few operations it overlaps, not the whole sum."""
    return sum(op_medians(passes, field))


def run(name, seed, seconds, trace, sizes, workdir):
    """Set up and measure one workload; returns (result, report lines, problems)."""
    import spans as tracing
    import workloads

    refs = workloads.load_references()
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPS):
        ops = None
        gc.collect()
        start = time.perf_counter()
        ops = workloads.build(name, seed, sizes, workdir)
        setup_times.append(probe.scale(time.perf_counter() - start))
    missing = [op.key for op in ops if op.key not in refs]
    if missing:
        raise SystemExit(f"error: no reference for {missing[:3]}; run record_references.py")

    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if trace and len(traced) < len(untraced):
            first = len(tracer.spans)
            tracer.counts = Counter()
            tracing.install(tracer, workloads)
            try:
                traced.append(run_pass(ops, refs, tally, probe, tracer))
            finally:
                tracer.unwrap()
            factors = [t.seconds / t.raw for t in traced[-1]]
            layers.append(tracing.layer_metrics(tracer.spans, first, tracer.counts, factors))
        else:
            untraced.append(run_pass(ops, refs, tally, probe))
        if time.perf_counter() >= deadline and (not trace or len(traced) >= 2):
            break

    lines = [f"workload {name} seed {seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced passes of {len(ops)} operations "
             f"(reference seconds, elapsed seconds in brackets)"]
    for kind in dict.fromkeys(t.kind for t in untraced[0]):
        per_pass = [[t for t in p if t.kind == kind] for p in untraced]
        lines.append(f"  {kind + '_s':<28} {typical_pass(per_pass):>14.6g} s "
                     f"({typical_pass(per_pass, 'raw'):.6g} s) per pass")
    if trace:
        metrics = {}
        for metric, unit, _ in tracing.PER_LAYER:
            if metric == "trace.overhead_frac":
                value = typical_pass(traced) / typical_pass(untraced) - 1.0
            elif metric in tracing.WORK_COUNTS:
                values = {layer[metric] for layer in layers}
                if len(values) != 1:
                    tally.problems.append(f"{metric} differs between traced passes: {sorted(values)}")
                value = layers[0][metric]
            else:
                value = statistics.median(layer[metric] for layer in layers)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": typical_pass(untraced),
            "op_p50_ms": 1000.0 * statistics.median(op_medians(untraced)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        lines.append(f"  {'pass_s elapsed':<28} {typical_pass(untraced, 'raw'):>14.6g} s")
    for metric, entry in metrics.items():
        lines.append(f"{metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, lines, tally.problems


def environment(pinned_before_numpy):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "pinned_before_numpy": pinned_before_numpy,
    }


def main(argv=None):
    pinned_before_numpy = "numpy" not in sys.modules
    os.environ.update(THREAD_PINS)
    import_mavik()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as workdir:
        result, lines, problems = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, workdir
        )
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("\n".join(lines))
    print("env " + json.dumps(environment(pinned_before_numpy), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
