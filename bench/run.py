"""hetcap benchmark: one workload in one fresh Python process, for a fixed time.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep_ref --seed 1 --seconds 35 --trace 0

Workloads: sweep_ref, matched_se_dense, large_region_lb (see NOTES.md).
The library is imported from ``src/`` of the checkout; without it the script
exits with status 1 and prints no result.

Set-up time is the median over several fresh interpreters, each timed from
launch until ``import hetcap`` and the workload's inputs are done; they run
one at a time, spread over the run, between ops. In the workload process one
warm-up op runs, then ops run back to back for ``--seconds`` (at least
``MIN_OPS``), each followed by its output checks outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics from the traced ones,
plus the tracing overhead. It also writes the spans to
``.bench_out/<workload>-seed<n>.spans.jsonl``. Every run writes a record of
its environment, parameters and metrics to ``.bench_out/``. The last line on
stdout is a JSON object with the keys correct, attempted, failed and metrics.
"""
import os

# Pin native thread pools before numpy loads; set-up children inherit this.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep_ref", "matched_se_dense", "large_region_lb")

SETUP_SAMPLES = 7
MIN_OPS = 20          # per timed series; the tail needs TAIL_BEYOND beyond it
MAX_LOOP_S = 120.0    # keeps a run under its time limit if ops slow down
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0

LAYERS = ("geometry", "capacity", "interference", "experiments", "config", "cli")

# Per-layer metric -> (span key summed per op, unit). Keys are those of
# ``spans.per_op_layers``.
SPAN_METRICS = {
    "geometry.sample_s": ("geometry.sample.self_s", "s"),
    "geometry.validate_s": ("geometry.validate.self_s", "s"),
    "geometry.cells": ("geometry.sample.cells", "count"),
    "geometry.parents_expected": ("geometry.sample.parents_expected", "count"),
    "geometry.pair_bytes_computed": ("geometry.sample.pair_bytes_computed", "bytes"),
    "capacity.simulate_s": ("capacity.simulate.self_s", "s"),
    "capacity.simulate.trials": ("capacity.simulate.trials", "count"),
    "capacity.simulate.links": ("capacity.simulate.links", "count"),
    "capacity.simulate.bytes_computed": ("capacity.simulate.bytes_computed", "bytes"),
    "capacity.reduce_s": ("capacity.reduce.self_s", "s"),
    "capacity.reduce.calls": ("capacity.reduce.calls", "count"),
    "capacity.lower_bound_self_s": ("capacity.lower_bound.self_s", "s"),
    "capacity.lower_bound.calls": ("capacity.lower_bound.calls", "count"),
    "capacity.lower_bound.signal_samples":
        ("capacity.lower_bound.signal_samples", "count"),
    "interference.mean_s": ("interference.mean.self_s", "s"),
    "interference.mean.calls": ("interference.mean.calls", "count"),
    "interference.mean.terms": ("interference.mean.terms", "count"),
    "experiments.sweep_self_s": ("experiments.sweep.self_s", "s"),
    "experiments.grid_points": ("experiments.sweep.grid_points", "count"),
    "config.load_s": ("config.load.self_s", "s"),
    "config.emit_s": ("config.emit.self_s", "s"),
    "config.emit.bytes": ("config.emit.bytes", "bytes"),
    "cli.self_s": ("cli.main.self_s", "s"),
}
# Throughputs: metric -> (work key, busy-time key).
RATE_METRICS = {
    "capacity.simulate.links_per_s":
        ("capacity.simulate.links", "capacity.simulate.self_s"),
    "capacity.reduce.trials_per_s":
        ("capacity.reduce.trials", "capacity.reduce.self_s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-launched-at", type=float,
                        help=argparse.SUPPRESS)  # set-up timing child
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_library():
    """Import hetcap from the checkout's src/; return (workloads module, seconds)."""
    if not (SRC / "hetcap" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hetcap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports hetcap
    import_s = time.perf_counter() - t0
    import hetcap
    if SRC not in Path(hetcap.__file__).resolve().parents:
        raise SystemExit(f"bench: hetcap imported from {hetcap.__file__}, not {SRC}")
    return workloads, import_s


def workdir_for(name: str) -> Path:
    path = OUT / "work" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_child(args) -> None:
    """Build the inputs, then report the time since the parent launched us.

    CLOCK_MONOTONIC is system-wide, so the parent's reading taken just
    before the launch is comparable with ours.
    """
    workloads, import_s = import_library()
    workloads.WORKLOADS[args.workload](args.seed, workdir_for(f"{args.workload}-setup"))
    print(json.dumps({"setup_s": time.monotonic() - args.setup_launched_at,
                      "import_s": import_s}))


class SetupSampler:
    """Times fresh interpreters from launch until the inputs are built.

    Samples are spread over the run rather than taken back to back, so the
    median averages over the slow and fast phases of a shared machine the
    same way the op median does.
    """

    def __init__(self, args) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-launched-at"]
        self.setup_s: list[float] = []
        self.import_s: list[float] = []

    def sample(self) -> None:
        child = subprocess.run(self.command + [repr(time.monotonic())],
                               capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit(f"bench: set-up child failed:\n{child.stderr}")
        report = json.loads(child.stdout)
        self.setup_s.append(report["setup_s"])
        self.import_s.append(report["import_s"])

    def sample_due(self, fraction: float) -> None:
        """Take the samples due once ``fraction`` of the run has passed."""
        due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * fraction) + 1)
        while len(self.setup_s) < due:
            self.sample()


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, workload) -> dict:
    import hetcap
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "hetcap": hetcap.__version__, "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "params": workload.params}


def run_ops(workload, args, tracer, sampler):
    """Warm up, then run ops for args.seconds, taking set-up samples between.

    Returns (untraced op seconds, traced op seconds, attempted, failed,
    problems). An op fails when it raises or a check finds a problem; only
    ops that pass are timed. With a tracer, odd ops run untraced and even
    ops traced.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    problems: list[str] = []
    attempted = failed = 0

    def one(op_id: int, traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = op_id
            tracer.install()
        try:
            t0 = time.perf_counter()
            if traced:
                tracer.span("op", workload.op)
            else:
                workload.op()
            elapsed = time.perf_counter() - t0
            found = tracer.span("check", workload.check)[1] if traced \
                else workload.check()
        except Exception as exc:  # an op that raises counts as failed
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            if timed and not found:
                times[traced].append(elapsed)
        finally:
            if traced:
                tracer.uninstall()
        failed += bool(found)
        problems.extend(f"op {op_id}: {p}" for p in found)

    one(0, False, timed=False)
    series = (False, True) if tracer else (False,)
    start = time.perf_counter()
    deadline, hard_stop = start + args.seconds, start + MAX_LOOP_S
    op_id = 1
    while True:
        now = time.perf_counter()
        short = any(len(times[t]) < MIN_OPS for t in series)
        if now >= hard_stop or (now >= deadline and not short):
            break
        sampler.sample_due((now - start) / args.seconds)
        one(op_id, traced=tracer is not None and op_id % 2 == 0, timed=True)
        op_id += 1
    sampler.sample_due(1.0)
    return times[False], times[True], attempted, failed, problems


def layer_metrics(tracer, import_s, overhead_s, extra, problems):
    """Per-layer metrics (name -> (value, unit)) from the traced ops."""
    rows = list(spans.per_op_layers(
        [s for s in tracer.spans if s.op > 0]).values())
    # Counts are a function of the inputs, so every traced op must repeat them.
    for key in sorted({k for row in rows for k in row if not k.endswith("self_s")}):
        if len({row.get(key, 0) for row in rows}) > 1:
            problems.append(f"count {key} differs between ops")

    def median(key):
        # counts repeat on every op (checked above), so only times vary
        values = [row.get(key, 0) for row in rows]
        return statistics.median(values) if key.endswith("self_s") else values[0]

    metrics = {name: (median(key), unit) for name, (key, unit) in SPAN_METRICS.items()}
    for name, (work, busy) in RATE_METRICS.items():
        seconds = median(busy)
        metrics[name] = (median(work) / seconds if seconds else 0.0, "1/s")
    errors = spans.errors_by_layer(tracer.spans)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    metrics["import.hetcap_s"] = (statistics.median(import_s), "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trials_at_se"] = extra.get("trials_at_se", (0, "count"))
    metrics["lb_s_at_se"] = extra.get("lb_s_at_se", (0.0, "s"))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_launched_at is not None:
        setup_child(args)
        return 0

    workloads, _ = import_library()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir_for(args.workload))
    tracer = spans.Tracer() if args.trace else None
    sampler = SetupSampler(args)
    untraced, traced, attempted, failed, problems = run_ops(workload, args, tracer,
                                                            sampler)
    setup_s, import_s = sampler.setup_s, sampler.import_s
    extra = workload.extra_metrics()

    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{attempted} ops attempted, {len(problems)} problems"]
    lines += [f"  problem: {p}" for p in problems[:20]]
    if not untraced or (tracer and not traced):
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit("bench: no op passed its checks")

    op_s_p50 = statistics.median(untraced)
    if tracer:
        overhead_s = statistics.median(traced) - op_s_p50
        metrics = layer_metrics(tracer, import_s, overhead_s, extra, problems)
        lines.append(f"traced op_s_p50 {statistics.median(traced):.6g} s over "
                     f"{len(traced)} ops, untraced {op_s_p50:.6g} s over "
                     f"{len(untraced)} ops")
    else:
        tail_s, tail_pct = tail(untraced)
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "op_s_p50": (op_s_p50, "s"),
                   "op_s_tail": (tail_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                   .ru_maxrss / 1024.0, "MB")}
        lines.append(f"op_s_tail is p{tail_pct:.1f} of {len(untraced)} timed ops "
                     f"({TAIL_BEYOND} beyond it); setup_s is the median of "
                     f"{SETUP_SAMPLES} fresh interpreters")
    report = dict(metrics)
    if not tracer:
        report.update(extra)
        report["fail_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in report.items():
        share = ""
        if tracer and unit == "s" and name.split(".")[0] in LAYERS:
            share = f"  ({100 * value / statistics.median(traced):.1f}% of a traced op)"
        lines.append(f"{name:36s} {value:.6g} {unit}{share}")

    env = environment(args, workload)
    lines.append("env " + json.dumps(env, sort_keys=True))
    stem = f"{args.workload}-seed{args.seed}"
    record = {"env": env, "problems": problems, "setup_s": setup_s,
              "op_s_untraced": untraced, "op_s_traced": traced,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
