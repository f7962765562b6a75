"""Benchmark of the nsrecon pipeline on three workloads.

    python3 perfbench/run.py --workload stripe_eval --seed 1 --seconds 30 \
        --trace 0

Run it from the repository root: it imports nsrecon from ./src.  It
builds the workload from the seed several times and reports the median
build time as set-up.  It then runs rounds of the workload's calls, one
call at a time, in one process with one BLAS thread, until the measured
time is spent; the first round is a warm-up.  Every output is checked.
Times are in calibrated seconds (see clock.py): a time is the median of
its samples (round_s: the mean seconds per round), a rate the
operations done over the time they took.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced rounds and prints per-layer metrics from spans
recorded around calls into each module (see tracer.py), and the tracing
overhead.  Lines starting with `#` are the report for people: every
end-to-end metric of the workload with its per-call median, highest
percentile with at least ten samples beyond it, sample count and
wall-clock value, and the environment.  The last line is the JSON
result.  The full record, with every call, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter

from stats import median, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("stripe_train", "stripe_eval", "rate_study")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # the reference kernel of clock.py is single-threaded too
LAYOUT_ENV = "PERFBENCH_FIXED_LAYOUT"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
# Set-up runs at least this often, and again while it has taken less than
# SETUP_BUDGET_S, up to SETUP_MAX_REPS.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 20000, 1.0
# A workload whose build takes less than this is built afresh for every
# round, so that the rounds sample different alignments of its arrays in
# memory: the dense 256x256 products ran up to 25% faster or slower with
# the matrix's offset to 64-byte cache lines, at bit-identical results.
REBUILD_MAX_S = 0.5
# The first round fills caches and finishes lazy set-up: its outputs are
# checked, its times are left out.
WARMUP_ROUNDS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _personality(flags=0xFFFFFFFF) -> int:
    """personality(2) of this process; the default argument only reads it."""
    return ctypes.CDLL(None, use_errno=True).personality(flags)


def fix_memory_layout() -> None:
    """Re-execute this process once with address-space randomisation off
    and a fixed hash seed.  Where arrays land in memory changed the speed
    of the dense matrix-vector products by up to 40% from one process to
    the next; with a fixed layout, runs of the same code agree."""
    if os.environ.get(LAYOUT_ENV):
        return
    os.environ[LAYOUT_ENV] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    current = _personality()
    if current != -1:
        _personality(current | ADDR_NO_RANDOMIZE)
    sys.stdout.flush()
    try:
        os.execv(sys.executable, [sys.executable] + sys.argv)
    except OSError as exc:  # measure with the layout we have
        print(f"perfbench: cannot re-execute: {exc}", file=sys.stderr)


def import_nsrecon():
    """Import nsrecon from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nsrecon", "__init__.py")):
        raise ImportError(f"no nsrecon package under {SRC}")
    sys.path.insert(0, SRC)
    import nsrecon
    if not os.path.abspath(nsrecon.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nsrecon imported from {nsrecon.__file__}")
    return nsrecon


# -- environment record ------------------------------------------------------

def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "address_randomization": not _personality() & ADDR_NO_RANDOMIZE,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- measurement -------------------------------------------------------------

@dataclass
class Call:
    stage: str
    metric: str
    round: int
    traced: bool
    wall_s: float
    ops: int
    failed: int
    digest: str | None


def digest(obj) -> str:
    """Hash of every number in a result, to compare results bit for bit."""
    import numpy as np
    h = hashlib.blake2b(digest_size=16)

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(str(o.shape).encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif is_dataclass(o):
            for f in fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, dict):
            for k in sorted(o, key=str):
                h.update(str(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        else:
            h.update(repr(o).encode())
    feed(obj)
    return h.hexdigest()


def timed_setup(build, seed, clock):
    """Build the workload repeatedly; return it with the wall times of the
    builds."""
    walls = []
    while True:
        t0 = perf_counter()
        workload = build(seed)
        walls.append(perf_counter() - t0)
        clock.sample(walls[-1])
        if len(walls) >= SETUP_MAX_REPS or (
                len(walls) >= SETUP_MIN_REPS and sum(walls) >= SETUP_BUDGET_S):
            return workload, walls


def run_round(workload, index, tracer, clock):
    """One pass over the workload's stages; returns (calls, outputs)."""
    calls, outputs = [], {}
    for stage in workload.stages:
        span = (tracer.span(stage.span) if tracer is not None and stage.span
                else contextlib.nullcontext())
        out, failed = None, stage.ops
        t0 = perf_counter()
        try:
            with span:
                out = stage.run()
        except Exception:  # a failing call is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - t0
        clock.sample(wall)
        if out is not None:
            outputs[stage.name] = out
            try:
                failed = min(stage.ops, stage.check(out, outputs))
            except Exception:  # an output the check cannot read is wrong
                traceback.print_exc(file=sys.stderr)
        calls.append(Call(stage.name, stage.metric, index, tracer is not None,
                          wall, stage.ops, failed,
                          digest(out) if out is not None else None))
    return calls, outputs


def check_the_checks(workload, outputs):
    """Every stage's check must count a failure on a corrupted output."""
    for stage in workload.stages:
        if stage.name in outputs:
            bad = stage.corrupt(outputs[stage.name])
            if stage.check(bad, outputs) < 1:
                raise RuntimeError(
                    f"the check of stage {stage.name} accepts a corrupted "
                    "output")


def measure(build, seed, workload, rebuild, seconds, tracer, clock):
    """Rounds until `seconds` have passed (a round starts only if the
    median round still fits); with a tracer, odd rounds are traced."""
    calls, outputs, untraced = [], None, []
    start = perf_counter()
    index = 0
    while True:
        if rebuild and index > 0:
            workload = build(seed)
        traced = tracer is not None and index % 2 == 1
        ctx = tracer.installed() if traced else contextlib.nullcontext()
        with ctx:
            round_calls, round_outputs = run_round(
                workload, index, tracer if traced else None, clock)
        calls += round_calls
        if not traced:
            untraced.append(sum(c.wall_s for c in round_calls))
        if index == 0:
            outputs = round_outputs
            check_the_checks(workload, outputs)
        index += 1
        if index >= WARMUP_ROUNDS + (2 if tracer is not None else 1) and (
                perf_counter() - start + median(untraced) > seconds):
            return calls, outputs


def mark_trace_mismatches(calls):
    """A traced call whose result differs in any bit from the untraced
    call of the same stage counts all its operations as failed."""
    reference = {c.stage: c.digest for c in calls if not c.traced}
    mismatched = []
    for c in calls:
        if c.traced and c.digest != reference.get(c.stage):
            c.failed = c.ops
            mismatched.append(c.stage)
    return mismatched


# -- metrics -----------------------------------------------------------------

def timed_calls(calls, traced):
    return [c for c in calls
            if c.traced == traced and c.round >= WARMUP_ROUNDS]


def round_times(calls, traced):
    """Wall time of each timed traced or untraced round."""
    per_round = {}
    for c in timed_calls(calls, traced):
        per_round[c.round] = per_round.get(c.round, 0.0) + c.wall_s
    return list(per_round.values())


def end_to_end(workload, calls, setup_walls, outputs, setup_scale, scale):
    """(contract metrics, report lines, detail) of an untraced run; the
    scales turn wall seconds of set-up and of calls into calibrated
    seconds.  A time is the median of its samples; a rate is the
    operations done over the time they took, and round_s is its inverse,
    the seconds per round."""
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    untraced = timed_calls(calls, False)
    rounds = round_times(calls, False)
    # name -> (statistic, wall seconds per sample, ops per sample, scale)
    groups = {"setup_s": ("median", setup_walls, None, setup_scale),
              "round_s": ("mean", rounds, None, scale)}
    for metric in dict.fromkeys(c.metric for c in untraced):
        sel = [c for c in untraced if c.metric == metric]
        walls = [c.wall_s for c in sel]
        if metric.endswith("_per_s"):
            groups[metric] = ("rate", walls, [c.ops for c in sel], scale)
        else:
            groups[metric] = ("median", walls, None, scale)
    if workload.round_metric:
        per_round = sum(s.ops for s in workload.stages)
        groups[workload.round_metric] = ("rate", rounds,
                                         [per_round] * len(rounds), scale)
    table = {}
    for name, (stat, walls, ops, factor) in groups.items():
        samples = [w * factor for w in walls]
        if stat == "median":
            row = {"value": median(samples), "wall": median(walls),
                   "unit": "s"}
        elif stat == "mean":
            row = {"value": sum(samples) / len(samples),
                   "wall": sum(walls) / len(walls), "unit": "s"}
        else:
            samples = [o / t for o, t in zip(ops, samples)]
            row = {"value": sum(ops) / (sum(walls) * factor),
                   "wall": sum(ops) / sum(walls), "unit": "1/s"}
        row["samples"] = summarize(samples)
        table[name] = row
    metrics = {
        "setup_s": (table["setup_s"]["value"], "s"),
        "round_s": (table["round_s"]["value"], "s"),
        "main_per_s": (table[workload.main]["value"], "1/s"),
        "side_per_s": (table[workload.side]["value"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "1"),
    }
    lines = ["end-to-end metrics in calibrated seconds (a time is a median, "
             "round_s the mean per round, a rate operations over their total "
             "time); per-call samples: median, highest percentile with at "
             "least ten samples beyond it, count; the value in wall-clock "
             "seconds"]
    for name, row in table.items():
        s = row["samples"]
        hi = ("-" if s["p_hi"] is None
              else f"p{s['p_hi_pct']:g}={s['p_hi']:.6g}")
        lines.append(f"  {name:28s} {row['value']:12.6g} {row['unit']:4s} "
                     f"median={s['median']:<10.6g} {hi:18s} n={s['n']:<5d} "
                     f"wall {row['wall']:.6g}")
    lines.append("other end-to-end metrics")
    extra = dict(workload.extras(outputs))
    extra["peak_rss_mb"] = metrics["peak_rss_mb"]
    extra["fail_ratio"] = (failed / attempted, "1")
    for name, (value, unit) in extra.items():
        lines.append(f"  {name:28s} {value:12.6g} {unit}")
    return metrics, lines, {"end_to_end": table, "extra": extra}


PER_LAYER = [  # (metric, span name, field, unit)
    ("regularize.tikhonov.calls", "regularize.tikhonov", "calls", "1/round"),
    ("regularize.tikhonov.share", "regularize.tikhonov", "share", "%"),
    ("regularize.spectral.calls", "regularize.spectral", "calls", "1/round"),
    ("regularize.spectral.share", "regularize.spectral", "share", "%"),
    ("linops.cg.tikhonov.iters_mean", "linops.cg.tikhonov", "work_mean",
     "1/solve"),
    ("linops.cg.projector.iters_mean", "linops.cg.projector", "work_mean",
     "1/solve"),
    ("nullspace.project.calls", "nullspace.project", "calls", "1/round"),
    ("nullspace.project.share", "nullspace.project", "share", "%"),
    ("operators.matvec.calls", "operators.matvec", "calls", "1/round"),
    ("operators.matvec.us_p50", "operators.matvec", "us_p50", "us"),
    ("nn.forward.share", "nn.forward", "share", "%"),
    ("nn.forward.conv_mflop", "nn.forward", "mflop", "MFLOP"),
    ("nn.backward.share", "nn.backward", "share", "%"),
    ("nn.backward.conv_mflop", "nn.backward", "mflop", "MFLOP"),
    ("nn.adam_step.share", "nn.adam_step", "share", "%"),
    ("nn.conv2d.calls", "nn.conv2d", "calls", "1/round"),
    ("nn.conv2d.us_p50", "nn.conv2d", "us_p50", "us"),
    ("nn.conv2d.computed_gflop_per_s", "nn.conv2d", "gflop_per_s",
     "GFLOP/s"),
    ("nn.correction.share", "nn.correction", "share", "%"),
    ("nn.lipschitz.share", "nn.lipschitz", "share", "%"),
    ("metrics.ssim.calls", "metrics.ssim", "calls", "1/round"),
    ("metrics.ssim.share", "metrics.ssim", "share", "%"),
    ("metrics.psnr.calls", "metrics.psnr", "calls", "1/round"),
    ("data.make_dataset.samples", "data.make_dataset", "work_per_round",
     "1/round"),
    ("data.make_dataset.share", "data.make_dataset", "share", "%"),
] + [(f"experiments.{stage}.self_share", f"experiments.{stage}", "self",
      "%") for stage in ("train", "evaluate", "dc_audit",
                         "convergence_study", "nsn_convergence_study")]


def _layer_field(layer, field, rounds):
    if layer is None:
        return 0.0
    return {
        "calls": layer["calls_per_round"],
        "share": layer["share_pct"],
        "self": layer["self_share_pct"],
        "work_mean": layer["work_mean"],
        "work_per_round": layer["work_total"] / rounds,
        "mflop": layer["work_mean"] / 1e6,
        "us_p50": layer["ms"]["median"] * 1e3,
        "gflop_per_s": layer["work_total"] / layer["total_s"] / 1e9,
    }[field]


def per_layer(workload, calls, tracer):
    """(contract metrics, report lines, detail) of a traced run."""
    from tracer import overhead_pct
    traced_times = round_times(calls, True)
    rounds = len(traced_times)
    stage_ops = {s.span: s.ops for s in workload.stages if s.span}
    summary = tracer.summary(sum(traced_times), rounds, stage_ops)
    layers = summary["layers"]
    metrics = {name: (_layer_field(layers.get(span), field, rounds), unit)
               for name, span, field, unit in PER_LAYER}
    metrics["linops.cg.unconverged"] = (float(summary["unconverged"]),
                                        "count")
    metrics["linops.cg.ms_p50"] = (tracer.median_ms(
        ("linops.cg.tikhonov", "linops.cg.projector")), "ms")
    lipschitz = summary["per_op"].get("nn.lipschitz", {})
    metrics["nn.lipschitz.power_iters"] = (lipschitz.get("power_iters", 0.0),
                                           "1/bound")
    overhead = overhead_pct(round_times(calls, False), round_times(calls,
                                                                   True))
    metrics["tracing.overhead"] = (overhead, "%")

    lines = [f"per-layer spans over {rounds} traced rounds "
             f"({sum(traced_times):.3f} s); ms: median, highest percentile "
             "with at least ten samples beyond it, count",
             f"  {'span':34s} {'calls/rnd':>10s} {'ms_p50':>10s} "
             f"{'ms_p_hi':>16s} {'n':>8s} {'share%':>7s} {'self%':>7s} "
             f"{'work_mean':>11s}"]
    for name, layer in sorted(layers.items()):
        s = layer["ms"]
        hi = ("-" if s["p_hi"] is None
              else f"p{s['p_hi_pct']:g}={s['p_hi']:.4g}")
        lines.append(
            f"  {name:34s} {layer['calls_per_round']:10.1f} "
            f"{s['median']:10.4g} {hi:>16s} {s['n']:8d} "
            f"{layer['share_pct']:7.2f} {layer['self_share_pct']:7.2f} "
            f"{layer['work_mean']:11.5g}")
    lines.append("exact counts per operation of each stage")
    for stage, counts in summary["per_op"].items():
        for name, value in sorted(counts.items()):
            lines.append(f"  {stage} -> {name}: {value:.6g}")
    lines.append(f"linops.cg.unconverged: {summary['unconverged']}")
    lines.append(f"tracing overhead: {overhead:.2f} % of the untraced round "
                 "time")
    return metrics, lines, summary


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads()
    fix_memory_layout()
    try:
        import_nsrecon()
    except ImportError as exc:
        print(f"perfbench: cannot import nsrecon: {exc}", file=sys.stderr)
        return 2
    from clock import Clock
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment(args)
    build = WORKLOADS[args.workload]
    setup_clock, clock = Clock(), Clock()
    if args.trace:
        t0 = perf_counter()
        workload, setup_walls = build(args.seed), []
        build_s = perf_counter() - t0
    else:
        workload, setup_walls = timed_setup(build, args.seed, setup_clock)
        build_s = median(setup_walls)
    tracer = Tracer() if args.trace else None
    try:
        calls, outputs = measure(
            build, args.seed, workload, build_s < REBUILD_MAX_S,
            args.seconds, tracer, clock)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    mismatched = mark_trace_mismatches(calls) if tracer else []

    if tracer:
        metrics, lines, detail = per_layer(workload, calls, tracer)
    else:
        metrics, lines, detail = end_to_end(
            workload, calls, setup_walls, outputs, setup_clock.scale(),
            clock.scale())
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)

    print(f"# nsrecon perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if setup_clock.references:
        env["setup_calibration_scale"] = setup_clock.scale()
    env["calibration_scale"] = clock.scale()
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print("# " + line)
    if mismatched:
        print("# traced results differ from untraced ones in: "
              + ", ".join(sorted(set(mismatched))))
    print(f"# operations: attempted={attempted} failed={failed}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "detail": detail,
                   "setup_wall_s": setup_walls,
                   "setup_references_s": setup_clock.references,
                   "references_s": clock.references,
                   "calls": [vars(c) for c in calls]},
                  fh, indent=1, default=str)
    if tracer:
        tracer.save(stem + "-spans.npz")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
