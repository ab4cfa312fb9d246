"""Interleaved A/B timing of ``integrate`` for two source checkouts.

    python3 tools/ab_integrate.py OLD NEW [--pairs 10] [--case stiff_loop] \
        [--accuracy] ...

OLD and NEW are checkout roots, each with ``src/funnelsim``.  Each side
runs in its own long-lived worker process, which builds every run outside
the timed span and times ``integrate`` alone in CPU seconds.  A pair is one
run on each side, back to back, the order alternating from pair to pair, so
drift of the host falls on both sides alike.

A case is a preset (``scenario_a``, ``scenario_b``), a bench loop variant
(``stiff_loop:3``, ``dropout_train:0``) or a whole loop workload
(``stiff_loop``: its variants in turn, one per pair).  For every case the
tool prints whether the two sides took identical step counts (accepted,
rejected by cause, rhs and Jacobian evaluations where both report them),
whether their sample times and step endpoint states are bit-identical, the
largest deviation on the output-grid times both sides sampled, relative to
the sample's largest state component (at least 1), and the median and
quartiles of the per-pair CPU-time ratio NEW / OLD.  ``--accuracy`` also
runs OLD once per variant at rtol 1e-11 and atol 1e-13, untimed, and prints
each side's largest deviation from that run, measured in the same way, so
that step endpoints that moved come with a measured accuracy.
``--json PATH`` writes the same as one JSON document.
"""

import argparse
import dataclasses
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"
LOOP_WORKLOADS = ("stiff_loop", "dropout_train")
COUNTS = ("accepted", "rejected", "rejected_error", "rejected_newton",
          "rejected_funnel", "rhs_evals", "jac_evals", "matrix_updates",
          "segments")
TIGHT = (1e-11, 1e-13)      # (rtol, atol) of the --accuracy reference run


# --- worker: one checkout, one process -----------------------------------

def _config(cli, case):
    if ":" not in case:
        return cli.load_config(preset=case)
    workload, v = case.split(":")
    with open(BENCH_DATA / f"{workload}.json") as fh:
        return json.load(fh)["variants"][int(v)]["config"]


def _worker(root):
    sys.path.insert(0, str(Path(root) / "src"))
    from funnelsim import cli, class_constants, integrate

    inp, out = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            case, tol = pickle.load(inp)
        except EOFError:
            return
        cfg = _config(cli, case)
        nf, y_ref, design, _, sched = cli._build_run(cfg)
        cc, opts = class_constants(nf), cli._sim_options(cfg)
        if tol is not None:
            opts = dataclasses.replace(opts, rtol=tol[0], atol=tol[1])
        start = time.process_time()
        trace = integrate(nf, cc, design, sched, y_ref, opts=opts)
        cpu = time.process_time() - start
        # the output grid as integrate lays it; other samples are endpoints
        grid = np.arange(1, math.floor(sched.horizon / opts.grid_dt) + 1)
        ends = ~np.isin(trace.t, grid * opts.grid_dt)
        pickle.dump({"cpu": cpu, "stats": trace.stats, "t": trace.t,
                     "x": trace.x, "ends": ends}, out)
        out.flush()


class Side:
    def __init__(self, root):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, case, tol=None):
        pickle.dump((case, tol), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


# --- pairs: both sides, interleaved --------------------------------------

def _variants(case):
    if case in LOOP_WORKLOADS:
        with open(BENCH_DATA / f"{case}.json") as fh:
            n = len(json.load(fh)["variants"])
        return [f"{case}:{v}" for v in range(n)]
    return [case]


def _deviation(base, other):
    """Largest deviation of other from base on the output-grid times both
    traces share, relative to the sample's largest state component (at
    least 1)."""
    # a moved step endpoint shifts every later row, so match grid rows by time
    grid_b, grid_o = ~base["ends"], ~other["ends"]
    _, i, j = np.intersect1d(base["t"][grid_b], other["t"][grid_o],
                             return_indices=True)
    x_b, x_o = base["x"][grid_b][i], other["x"][grid_o][j]
    scale = abs(x_b).max(axis=1, initial=1.0)[:, None]
    return float((abs(x_o - x_b) / scale).max(initial=0.0))


def _compare(old, new):
    """(counts identical, sample times and endpoint states identical,
    largest relative deviation on the output-grid times both traces
    share)."""
    keys = [k for k in COUNTS if k in old["stats"] and k in new["stats"]]
    same_counts = all(old["stats"][k] == new["stats"][k] for k in keys)
    ends = old["ends"]
    same = bool(old["t"].shape == new["t"].shape
                and (old["t"] == new["t"]).all()
                and (old["x"][ends] == new["x"][ends]).all())
    return same_counts, same, _deviation(old, new)


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--case", action="append",
                    help="preset, workload or workload:variant "
                         "(default: stiff_loop and dropout_train)")
    ap.add_argument("--accuracy", action="store_true",
                    help="also report each side's deviation from an OLD run "
                         "at rtol 1e-11, atol 1e-13")
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:      # quartiles of the ratios need two pairs
        ap.error("--pairs must be at least 2")
    cases = args.case or list(LOOP_WORKLOADS)
    sides = Side(args.old), Side(args.new)
    report, tight = {}, {}      # tight: the --accuracy run of each variant
    try:
        for case in cases:
            variants = _variants(case)
            for v in variants[:2]:      # warm both sides' imports and caches
                sides[0].run(v), sides[1].run(v)
            ratios, cpu, same, ends, dev = [], ([], []), True, True, 0.0
            accuracy = [0.0, 0.0]
            for i in range(args.pairs):
                v = variants[i % len(variants)]
                if args.accuracy and v not in tight:
                    tight[v] = sides[0].run(v, TIGHT)
                order = (0, 1) if i % 2 == 0 else (1, 0)
                res = [None, None]
                for s in order:
                    res[s] = sides[s].run(v)
                c, e, d = _compare(*res)
                same, ends, dev = same and c, ends and e, max(dev, d)
                for s in (0, 1):
                    cpu[s].append(res[s]["cpu"])
                    if args.accuracy:
                        accuracy[s] = max(accuracy[s],
                                          _deviation(tight[v], res[s]))
                ratios.append(res[1]["cpu"] / res[0]["cpu"])
            faster = sum(r < 1.0 for r in ratios)
            report[case] = {
                "pairs": args.pairs, "counts_identical": same,
                "endpoints_identical": ends, "max_rel_deviation": dev,
                "ratio": _quartiles(ratios), "new_faster": faster,
                "old_cpu_s": _quartiles(cpu[0]),
                "new_cpu_s": _quartiles(cpu[1])}
            if args.accuracy:
                report[case]["old_accuracy"], report[case]["new_accuracy"] = (
                    accuracy)
            r = report[case]["ratio"]
            print(f"{case}: counts identical {same}, endpoints identical "
                  f"{ends}, max deviation {dev:.3g}; ratio median "
                  f"{r['median']:.3f} (quartiles {r['q1']:.3f}-"
                  f"{r['q3']:.3f}), new faster in {faster}/{args.pairs}; "
                  f"old median {report[case]['old_cpu_s']['median']:.3f} s, "
                  f"new {report[case]['new_cpu_s']['median']:.3f} s",
                  flush=True)
            if args.accuracy:
                print(f"{case}: largest deviation from the rtol "
                      f"{TIGHT[0]:g} run: old {accuracy[0]:.3g}, new "
                      f"{accuracy[1]:.3g}", flush=True)
    finally:
        for side in sides:
            side.close()
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2])
    else:
        main()
