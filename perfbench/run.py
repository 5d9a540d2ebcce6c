"""The fszd benchmark: cold indicator sweeps, FSZ decisions and gamma queries.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-nonabelian --seed 1 --seconds 30 --trace 0

One process, no threads.  Every operation is cold: a fresh Group from its
spec and a fresh Session, as every CLI invocation pays.  A run repeats the
workload's list of operations ("a pass") once per NOMINAL_PASS_S of
``--seconds``, checks every output against perfbench/reference.json, and
prints one JSON result as its last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones; ``--trace 1``
makes a warm-up pass, then alternates untraced and traced passes, and
reports per-layer metrics and the tracing overhead.  See NOTES.md for the workloads and the metric
definitions.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import corpus

START = time.perf_counter()

OP_CEILING_S = 60.0  # an operation running longer than this fails
RUN_DEADLINE_S = 170.0  # no operation starts or runs past this point of the run
SETUP_PROBES = 5
NOMINAL_PASS_S = 10.0  # a pass of every workload takes 5 to 10 s here
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CALIBRATION_REF_S = 1.0e-3  # the calibration loop's time at reference speed
SAMPLE_EVERY_S = 0.05  # CPU seconds between calibration loops
LOCAL_LOOPS = 20  # an operation's speed comes from at least this many loops

LAYER_METRICS = (
    ("permcore.chain.self_s", "s"),
    ("permcore.chain.calls", "count"),
    ("permcore.classes.self_s", "s"),
    ("permcore.classes.elements", "count"),
    ("permcore.centralizer.self_s", "s"),
    ("permcore.centralizer.calls", "count"),
    ("permcore.centralizer.distinct", "count"),
    ("permcore.centralizer.unique_ratio", "ratio"),
    ("permcore.conjugator.self_s", "s"),
    ("permcore.conjugator.calls", "count"),
    ("permcore.rational_classes.self_s", "s"),
    ("chartab.table.self_s", "s"),
    ("chartab.table.total_s", "s"),
    ("chartab.table.calls", "count"),
    ("chartab.table.built", "count"),
    ("chartab.table.distinct", "count"),
    ("chartab.table.classes_sum", "count"),
    ("chartab.inner_product.self_s", "s"),
    ("chartab.inner_product.total_s", "s"),
    ("chartab.inner_product.calls", "count"),
    ("chartab.class_mult_coeff.self_s", "s"),
    ("chartab.class_mult_coeff.calls", "count"),
    ("cyclotomic.ops.self_s", "s"),
    ("cyclotomic.ops.count", "count"),
    ("indicators.gamma.self_s", "s"),
    ("indicators.gamma.calls", "count"),
    ("indicators.gamma.delta", "count"),
    ("indicators.gamma.zero", "count"),
    ("indicators.gamma.reduced", "count"),
    ("indicators.mate.self_s", "s"),
    ("indicators.mate.calls", "count"),
    ("indicators.mate.distinct", "count"),
    ("indicators.mu.self_s", "s"),
    ("indicators.nu.self_s", "s"),
    ("indicators.nu.calls", "count"),
    ("indicators.beta.self_s", "s"),
    ("indicators.beta.calls", "count"),
    ("report.self_s", "s"),
    ("report.bytes", "count"),
    ("unattributed.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def import_program():
    """Import fszd from this checkout's src/, and nowhere else."""
    src = corpus.BENCH_DIR.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import fszd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fszd from {src}: {exc}")
    if src.resolve() not in Path(fszd.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fszd imported from {fszd.__file__}, not from {src}")
    return fszd


# -- operations ------------------------------------------------------------------
#
# Each returns the output it consumed; the checks run outside the timed region.
# Like the CLI verbs, each keeps its group and session alive until the output
# is consumed, so that when the collector frees them does not move the peak
# memory.


def run_sweep(fszd, spec: str) -> str:
    group = fszd.construct_group(spec)
    session = fszd.Session(group)
    report = fszd.all_indicators(session)
    return report.to_json()


def run_fsz(fszd, spec: str, d: int):
    group = fszd.construct_group(spec)
    result = fszd.fsz_test(group, d)
    return result.verdict, result.witness


def run_gamma(fszd, spec: str, z: int, m: int, backend: str) -> tuple[int, ...]:
    group = fszd.construct_group(spec)
    session = fszd.Session(group)
    cf = fszd.gamma(session, z, m, backend)
    return tuple(v.as_integer() for v in cf.values)


RUNNERS = {"sweep": run_sweep, "fsz": run_fsz, "gamma": run_gamma}


class Checker:
    """Compares outputs with the reference; remembers raw digests so that
    every repeat of an operation in a run must be byte-identical."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.seed = seed
        self.digests: dict[int, str] = {}

    def check(self, index: int, op: tuple, output) -> str | None:
        kind, name = op[0], op[1]
        if kind == "sweep":
            ref = self.reference["sweep"][name]
            simples, summary = corpus.report_summary(output)
            if (simples, summary) != (ref["simples"], ref["summary"]):
                return f"{name}: indicator summary differs from the reference"
            digest = corpus.sha256(output.encode())
            if self.digests.setdefault(index, digest) != digest:
                return f"{name}: report bytes differ between passes"
            if self.seed == corpus.DEFAULT_SEED and digest != ref["digest"]:
                return f"{name}: report bytes differ from the default-seed reference"
            return None
        if kind == "fsz":
            ref = self.reference["fsz"][f"{name}/{op[3]}"]
            verdict, witness = output
            if verdict != ref["verdict"] or (witness is None) != (ref["witness"] is None):
                return f"{name} d={op[3]}: verdict {verdict} differs from the reference"
            if self.seed == corpus.DEFAULT_SEED and witness is not None and list(witness) != ref["witness"]:
                return f"{name} d={op[3]}: witness differs from the reference"
            return None
        _kind, name, _spec, z, m, backend = op
        expected = next(e[3] for e in self.reference["gamma_pool"][name] if e[0] == z and e[1] == m)
        if list(output) != expected:
            return f"{name} z={z} m={m} {backend}: gamma vector differs from the reference"
        return None


def calibration_loop():
    """Fixed pure-Python work of the kinds fszd does: permutation products
    on tuples, set insertion and Fraction arithmetic.  About 1 ms on an
    uncontended core of a 2-vCPU Xeon sandbox."""
    perm = tuple(range(1, 12)) + (0,)
    rev = tuple(reversed(range(12)))
    x = perm
    seen = set()
    for _ in range(300):
        x = tuple(x[j] for j in rev)
        x = tuple(perm[j] for j in x)
        seen.add(x)
    f = Fraction(1, 3)
    for i in range(1, 60):
        f = f * Fraction(i, i + 2) + Fraction(1, i)
    return len(seen), f


class Speed:
    """The machine's current speed, sampled while the run measures.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds to minutes, and a whole run can fall in a slow stretch.  A
    profiling timer interrupts the process every SAMPLE_EVERY_S of its CPU
    time, also inside operations, to time one calibration loop; the loop's
    time is taken out of the operation it interrupted.  Times are scaled to
    reference speed: measured seconds times CALIBRATION_REF_S over the mean
    time of the loops run around them.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in calibration loops so far
        self.tracer = None  # told about each loop, to keep it out of spans

    def sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed
        if self.tracer is not None:
            self.tracer.exclude(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, first: int = 0) -> float:
        """Scale for what ran since loop number ``first``: the loops timed
        since then, or the last LOCAL_LOOPS if there were fewer."""
        start = max(0, min(first, len(self.samples) - LOCAL_LOOPS))
        return CALIBRATION_REF_S / statistics.fmean(self.samples[start:])


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_pass(fszd, ops, checker, failures: list[str], speed=None, tracer=None) -> list[float]:
    """Run every operation once; return the time of each, scaled to
    reference speed when ``speed`` samples it."""
    times = []
    for index, op in enumerate(ops):
        gc.collect()
        runner = RUNNERS[op[0]]
        args = op[2:]
        limit = min(OP_CEILING_S, RUN_DEADLINE_S - (time.perf_counter() - START))
        if limit <= 0:
            failures.append(f"{op[1]}: not started before the run deadline")
            times.append(0.0)
            continue
        signal.setitimer(signal.ITIMER_REAL, limit)
        if speed is not None:
            spent, first = speed.spent, len(speed.samples)
        started = time.perf_counter()
        try:
            if tracer is None:
                output = runner(fszd, *args)
            else:
                output = tracer.run_op(lambda: runner(fszd, *args))
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            if speed is not None:
                elapsed = (elapsed - (speed.spent - spent)) * speed.scale(first)
        except OpTimeout:
            failures.append(f"{op[1]}: exceeded the {limit:.0f} s operation ceiling")
            times.append(time.perf_counter() - started)
            continue
        except Exception as exc:  # any failure of the program is counted, not fatal
            signal.setitimer(signal.ITIMER_REAL, 0)
            failures.append(f"{op[1]}: raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - started)
            continue
        times.append(elapsed)
        problem = checker.check(index, op, output)
        if problem:
            failures.append(problem)
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: its rank
    in percent, its value and the number of samples beyond it.  With too few
    samples for any such point above the median, the median is reported."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 1 - TAIL_BEYOND, n // 2)
    return 100.0 * (i + 1) / n, xs[i], n - 1 - i


def pass_count(seconds: float) -> int:
    """Passes for a run of about ``seconds``.  The count depends on nothing
    measured, so every run of a workload has the same number of latency
    samples and its tail percentile falls at the same rank."""
    return max(1, round(seconds / NOMINAL_PASS_S))


def measure_setup(workload: str, seed: int, speed: Speed) -> list[float]:
    """Fresh interpreter to the first timed operation, several times over:
    start a probe that imports fszd and builds the inputs, wait for its
    ready line."""
    probes = []
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        speed.sample()
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            probes.append(time.perf_counter() - started)
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise SystemExit("perfbench: set-up probe failed")
    return probes


def end_to_end(fszd, workload, seed, ops, checker, failures, seconds) -> tuple[dict, dict]:
    speed = Speed()
    setup = measure_setup(workload, seed, speed)
    speed.start()
    passes = []
    for _ in range(pass_count(seconds)):
        passes.append(run_pass(fszd, ops, checker, failures, speed))
        if time.perf_counter() - START + sum(passes[-1]) > RUN_DEADLINE_S:
            break
    speed.stop()
    samples = [t for p in passes for t in p]
    pct, tail_value, beyond = tail(samples)
    metrics = {
        "wall_s": (sum(statistics.median(col) for col in zip(*passes)), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup) * speed.scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": len(passes),
        "op_samples": len(samples),
        "op_tail_percentile": round(pct, 2),
        "op_tail_samples_beyond": beyond,
        "speed_scale": speed.scale(),
        "calibration_loops": len(speed.samples),
        "setup_probes_s": setup,
        "pass_s": [sum(p) for p in passes],
    }
    return metrics, detail


def per_layer(fszd, workload, ops, checker, failures, problems, seconds) -> tuple[dict, dict]:
    import spans

    speed = Speed()
    speed.sample()  # so that the first operation has a scale
    speed.start()
    # The first pass fills fszd's module-level caches (cyclotomic power
    # tables and the like); it is not measured, so that the untraced and the
    # traced pass start from the same state.
    run_pass(fszd, ops, checker, failures, speed)
    untraced, traced = [], []
    for _ in range(max(1, pass_count(seconds) // 2)):
        untraced.append(sum(run_pass(fszd, ops, checker, failures, speed)))
        tracer = spans.Tracer(fszd)
        first = len(speed.samples)
        tracer.install()
        speed.tracer = tracer
        try:
            wall = sum(run_pass(fszd, ops, checker, failures, speed, tracer))
        finally:
            speed.tracer = None
            tracer.uninstall()
        traced.append((wall, tracer, speed.scale(first)))
        tracer.finish()
        if time.perf_counter() - START + untraced[-1] + wall > RUN_DEADLINE_S:
            break
    speed.stop()

    def layer_value(tracer, name):
        layer, field = name.rsplit(".", 1)
        stats = tracer.layers[layer]
        if field in ("self_s", "total_s", "calls"):
            return getattr(stats, field)
        if field == "count":
            return stats.calls
        if field == "unique_ratio":
            return stats.counters.get("distinct", 0) / stats.calls if stats.calls else 0.0
        return stats.counters.get(field, 0)

    metrics = {}
    repeat = True
    for name, unit in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        if unit == "s":
            values = [layer_value(tr, name) * scale for _, tr, scale in traced]
            metrics[name] = (statistics.median(values), unit)
        else:
            values = [layer_value(tr, name) for _, tr, _ in traced]
            repeat = repeat and len(set(values)) == 1
            metrics[name] = (values[0], unit)
    traced_wall = statistics.median(t for t, _, _ in traced)
    untraced_wall = statistics.median(untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    missing = traced[0][1].missing_calls(workload)
    if missing:
        problems.append(f"traced run recorded no calls for {', '.join(missing)}")
    detail = {
        "passes": 1 + len(untraced) + len(traced),
        "traced_passes": len(traced),
        "counts_repeat": repeat,
        "overhead_ratio": traced_wall / untraced_wall - 1.0,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    fszd = import_program()
    reference = corpus.load_reference()
    ops = corpus.workload_inputs(args.workload, args.seed, reference)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    checker = Checker(reference, args.seed)
    failures: list[str] = []  # one entry per failed operation
    problems: list[str] = []  # failures of the run that are not one operation's
    if args.trace:
        metrics, detail = per_layer(fszd, args.workload, ops, checker, failures, problems, args.seconds)
    else:
        metrics, detail = end_to_end(
            fszd, args.workload, args.seed, ops, checker, failures, args.seconds
        )
    attempted = detail["passes"] * len(ops)
    failed = len(failures)
    for problem in failures + problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        inputs_digest=corpus.sha256(json.dumps(ops).encode()),
        error_rate={"value": failed / attempted, "unit": "ratio"},
        failures=(failures + problems)[:20],
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
