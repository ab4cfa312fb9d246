"""Seeded benchmark of the funnelsim pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  One process and one thread issue ops
back to back (a closed loop, concurrency 1) for S seconds; each op is
timed, then checked by the workload's correctness gate.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
below; with ``--trace 1`` spans around every call into a funnelsim module
give the per-layer ones.  The lines before it repeat the metrics by name
with units, the run metadata and ``ops_failed_ratio``; the run's record
goes to ``.work/results/`` and, when traced, its spans to ``.work/spans/``.

Workloads: stiff_loop, dropout_train, design_sweep (see workloads.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from importlib import metadata, util  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

WORKLOAD_NAMES = ("stiff_loop", "dropout_train", "design_sweep")
# Set-up time is the median of this many set-ups, each in a fresh
# interpreter, because an import is paid once per process.
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 120

# Times are reported in calibrated seconds.  On a shared 2-core host, speed
# was seen to switch by up to 2x within a second and to drift over minutes,
# which no run length averages out.  Two probes time rounds of a fixed loop
# that never calls the program (calibrator.py): this process, for CAL_SHARE
# of each op's time right after it (each set-up process: CAL_SETUP_ROUNDS
# rounds), and calibrator.py on the other core throughout.  Each probe gives
# CAL_NOMINAL_S over its mean round time over the span measured, and the
# span's wall time is scaled by the geometric mean of the two: the time on a
# host where one round takes exactly CAL_NOMINAL_S (3-6 ms on that host).
# Either probe alone failed on some ten-run series there, the in-process one
# when long ops leave it sparse, the other-core one when the cores drifted
# apart; see README.md.  The record keeps the wall times, the in-process
# rounds and the combined factor.
CAL_NOMINAL_S = 0.005
CAL_SHARE = 0.2
CAL_SETUP_ROUNDS = 30

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric (self time per op, median over ops)
LAYER_SPANS = {
    "cli.load_config": "cli.load_config_s",
    "cli.build": "cli.build_s",
    "sysmodel.to_normal_form": "sysmodel.to_normal_form_s",
    "sysmodel.class_constants": "sysmodel.class_constants_s",
    "design.synthesize": "design.synthesize_s",
    "design.report": "design.report_s",
    "simulator.integrate": "simulator.integrate_s",
    "simulator.write_csv": "simulator.write_csv_s",
    "simulator.read_csv": "simulator.read_csv_s",
    "verify.checks": "verify.checks_s",
}

PER_LAYER = {
    "cli.load_config_s": "s",
    "cli.build_s": "s",
    "sysmodel.to_normal_form_s": "s",
    "sysmodel.class_constants_s": "s",
    "design.synthesize_s": "s",
    "design.report_s": "s",
    "design.feasible_ratio": "ratio",
    "design.refine_iterations": "count",
    "controller.availability_calls": "count",
    "simulator.integrate_s": "s",
    "simulator.rhs_evals": "count",
    "simulator.us_per_rhs": "us",
    "simulator.steps_accepted": "count",
    "simulator.steps_rejected": "count",
    "simulator.step_accept_ratio": "ratio",
    "simulator.segments": "count",
    "simulator.rows": "count",
    "simulator.csv_bytes": "bytes",
    "simulator.write_csv_s": "s",
    "simulator.read_csv_s": "s",
    "simulator.integrate_share": "ratio",
    "simulator.csv_share": "ratio",
    "verify.checks_s": "s",
    "verify.min_funnel_margin": "1",
    "verify.ref_dev": "ratio",
    "bench.traced_solve_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="cut loop horizons and set up once (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def setup(args):
    """Import the program from this checkout and prepare the first op."""
    sys.path.insert(0, str(SRC))
    try:
        import funnelsim
    except ImportError as exc:
        raise SetupError(f"cannot import funnelsim from {SRC}: {exc}") \
            from None
    origin = Path(funnelsim.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SetupError(f"funnelsim was imported from {origin}, not {SRC}")
    import numpy as np
    import workloads

    try:
        wl = workloads.WORKLOADS[args.workload](args.workload, tiny=args.tiny)
    except FileNotFoundError as exc:
        raise SetupError(f"benchmark data missing: {exc}") from None
    order = [int(v) for v in
             np.random.default_rng(args.seed).permutation(len(wl.variants))]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return wl, order, workdir, wl.prepare(order[0], workdir)


def _child_setup_sample(args):
    """A fresh interpreter's set-up: (wall seconds, start, end, round time).

    start and end bound the child's life on this process's clock; the round
    time is its own calibration right after set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT)
    except (subprocess.SubprocessError, OSError) as exc:
        raise SetupError(f"set-up in a fresh interpreter failed: {exc}") \
            from None
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return (sample["setup_wall_s"], start, time.perf_counter(),
            sample["calibration_s"])


def calibrate(rounds):
    """Mean wall seconds of `rounds` calibration rounds in this process."""
    from calibrator import round_seconds

    return statistics.mean(round_seconds() for _ in range(rounds))


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def run_ops(wl, order, workdir, first, seconds, tracer):
    """Issue ops back to back until `seconds` have passed; one dict per op."""
    ops = []
    with tracer.patched():
        while not ops or ops[-1]["end"] - ops[0]["start"] < seconds:
            i = len(ops)
            v = order[i % len(order)]
            prep = first if i == 0 else wl.prepare(v, workdir)
            tracer.op_id = i
            t0 = time.perf_counter()
            try:
                with tracer.span("op", variant=v):
                    res = wl.op(prep, tracer)
                t1 = time.perf_counter()
                fails, counters = wl.check(res, prep)
            except Exception as exc:  # an untyped error fails the op
                t1 = time.perf_counter()
                traceback.print_exc()
                fails, counters = [f"{type(exc).__name__}: {exc}"], {}
            ops.append({"variant": v, "start": t0, "end": t1,
                        "wall_s": t1 - t0, "fails": fails, **counters})
            # free this op's trace before the next op allocates its own
            res = None
            gc.collect()
            rounds = max(1, round(CAL_SHARE * (t1 - t0) / CAL_NOMINAL_S))
            ops[-1]["calibration"] = (rounds, calibrate(rounds))
    return ops


@contextmanager
def speed_probe():
    """Run calibrator.py alongside the block; yields the list of its rounds.

    The list is filled, as (start, seconds) pairs, when the block ends.
    """
    rounds = []
    probe = subprocess.Popen([sys.executable, str(BENCH / "calibrator.py")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    try:
        yield rounds
        out, _ = probe.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if probe.returncode != 0:
        raise SetupError(f"the speed probe exited with {probe.returncode}")
    rounds.extend(json.loads(out))


def speed_factor(rounds, start, end, own_round):
    """Geometric mean of both probes' factors over the span start..end.

    rounds are the other-core probe's (start, seconds) pairs; own_round is
    this span's mean in-process round time.
    """
    during = [sec for t, sec in rounds if start <= t <= end]
    if not during:
        raise SetupError("the speed probe timed no round in a measured span")
    return CAL_NOMINAL_S / math.sqrt(own_round * statistics.mean(during))


def layer_metrics(ops, tracer, factor):
    """Per-layer metrics: medians over ops of self times and counters."""
    rows = []
    for i, op in enumerate(ops):
        own = tracer.self_times(i)
        row = {metric: own.get(span, 0.0) * factor
               for span, metric in LAYER_SPANS.items()}
        op_s = op["wall_s"] * factor
        rhs = op.get("rhs_evals", 0)
        accepted = op.get("steps_accepted", 0)
        steps = accepted + op.get("steps_rejected", 0)
        row.update({
            "design.refine_iterations": op.get("refine_iterations", 0),
            "controller.availability_calls":
                tracer.counts[i]["availability_calls"],
            "simulator.rhs_evals": rhs,
            # includes the trace post-pass, which integrate() also runs
            "simulator.us_per_rhs": (1e6 * row["simulator.integrate_s"] / rhs
                                     if rhs else 0.0),
            "simulator.steps_accepted": accepted,
            "simulator.steps_rejected": op.get("steps_rejected", 0),
            "simulator.step_accept_ratio": accepted / steps if steps else 0.0,
            "simulator.segments": op.get("segments", 0),
            "simulator.rows": op.get("rows", 0),
            "simulator.csv_bytes": op.get("csv_bytes", 0),
            "simulator.integrate_share": row["simulator.integrate_s"] / op_s,
            "simulator.csv_share": (row["simulator.write_csv_s"]
                                    + row["simulator.read_csv_s"]) / op_s,
            "verify.min_funnel_margin": op.get("min_funnel_margin", 0.0),
            "verify.ref_dev": op.get("ref_dev", 0.0),
            "bench.traced_solve_s": op_s,
        })
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows)
           for name in rows[0]}
    out["design.feasible_ratio"] = (sum(op.get("feasible", 0) for op in ops)
                                    / len(ops))
    return {name: out[name] for name in PER_LAYER}


def summarize(ops, setups, rounds):
    """Run-level figures in calibrated seconds, end-to-end metrics included."""
    own = (sum(n * sec for n, sec in (op["calibration"] for op in ops))
           / sum(n for n, _ in (op["calibration"] for op in ops)))
    factor = speed_factor(rounds, ops[0]["start"], ops[-1]["end"], own)
    times = [op["wall_s"] * factor for op in ops]
    failed = sum(1 for op in ops if op["fails"])
    return {
        "factor": factor,
        "setup_s": statistics.median(
            wall * speed_factor(rounds, start, end, cal)
            for wall, start, end, cal in setups),
        "solve_s": statistics.median(times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_p90_s": p90(times),
        "solve_wall_s": statistics.median(op["wall_s"] for op in ops),
        "failed": failed,
        "ops_failed_ratio": failed / len(ops),
    }


def run_meta(ops):
    import funnelsim

    engines = sorted({op["engine"] for op in ops if op.get("engine")})
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "funnelsim": funnelsim.__version__,
        "nproc": os.cpu_count(),
        "numba": util.find_spec("numba") is not None,
        # the engine trace.stats names; none when the workload never
        # integrates
        "engine": ",".join(engines) or None,
    }


def measure(args, wl, order, workdir, first):
    """Set-up samples, then the timed ops; returns the run's record."""
    import workloads
    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        workloads.install_wrappers(tracer)
    with speed_probe() as rounds:
        setups = [_child_setup_sample(args)
                  for _ in range(1 if args.tiny else SETUP_SAMPLES)]
        ops = run_ops(wl, order, workdir, first, args.seconds, tracer)
    summary = summarize(ops, setups, rounds)
    if args.trace:
        metrics = layer_metrics(ops, tracer, summary["factor"])
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {name: summary[name] for name in END_TO_END}
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "meta": run_meta(ops), "attempted": len(ops), **summary,
        "setup_samples": setups,
        "outcomes": dict(Counter(op.get("outcome", "completed")
                                 for op in ops)),
        "ops": ops, "metrics": metrics,
    }


def report(record):
    """Write the record, print the summary lines and the result line."""
    units = PER_LAYER if record["trace"] else END_TO_END
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}.json")
    with open(WORK / "results" / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# meta {json.dumps(record['meta'])}")
    print(f"# outcomes {json.dumps(record['outcomes'])}")
    for op in record["ops"]:
        for reason in op["fails"]:
            print(f"# FAIL op variant {op['variant']}: {reason}")
    for name, value in record["metrics"].items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# solve_p90_s = {record['solve_p90_s']:.6g} s (unbounded)")
    print(f"# solve_wall_s = {record['solve_wall_s']:.6g} s (uncalibrated)")
    print(f"# ops_failed_ratio = {record['ops_failed_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))


def main(argv=None):
    args = _parser().parse_args(argv)
    _pin_threads()
    try:
        wl, order, workdir, first = setup(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            wall = time.perf_counter() - T_START
            print(json.dumps({"setup_wall_s": wall,
                              "calibration_s": calibrate(CAL_SETUP_ROUNDS)}))
            return 0
        report(measure(args, wl, order, workdir, first))
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
