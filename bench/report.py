"""One-command summary of the benchmark, or a comparison of two runs.

    python3 bench/report.py [--seed N] [--seconds S]
    python3 bench/report.py --compare OLD.json NEW.json

The first form runs every workload untraced and traced through run.py and
prints, per workload, the end-to-end metrics with units, ops_failed_ratio,
solve_p90_s, the per-layer metrics, the tracing overhead (traced solve_s
minus untraced solve_s) and the layer split the workloads were chosen
for.  It exits 1 when an op failed or the split does not hold.

The second form compares two run records from .work/results/ metric by
metric, and flags runs made with different engines or library versions.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / ".work" / "results"
RUN_TIMEOUT = 600

sys.path.insert(0, str(BENCH))
from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

# The layer split each workload exists for: (workload, description, test).
SPLIT = [
    ("stiff_loop", "integrate is at least 70% of the op",
     lambda tr: tr["metrics"]["simulator.integrate_share"] >= 0.70),
    ("dropout_train", "write_csv plus read_csv is at least 50% of the op",
     lambda tr: tr["metrics"]["simulator.csv_share"] >= 0.50),
    ("design_sweep", "no op integrates",
     lambda tr: tr["metrics"]["simulator.rhs_evals"] == 0
     and tr["metrics"]["simulator.integrate_s"] == 0.0),
    ("design_sweep", "draws end both feasible and in typed errors",
     lambda tr: "feasible" in tr["outcomes"] and len(tr["outcomes"]) > 1),
]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                   timeout=RUN_TIMEOUT, cwd=BENCH.parent)
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return json.load(fh)


def flag(records):
    """Warn about meta fields that differ between runs put side by side.

    A run that never integrates names no engine and matches any engine.
    """
    for key in sorted({k for r in records for k in r["meta"]}):
        values = [r["meta"].get(key) for r in records]
        seen = {json.dumps(v) for v in values
                if not (key == "engine" and v is None)}
        if len(seen) < 2:
            continue
        if key == "engine":
            print(f"WARNING: runs used different engines {values}; their "
                  f"times are not comparable")
        else:
            print(f"WARNING: runs differ in {key}: {values}")


def summary(seed, seconds):
    runs = {w: (run_one(w, seed, seconds, 0), run_one(w, seed, seconds, 1))
            for w in WORKLOAD_NAMES}
    flag([r for pair in runs.values() for r in pair])
    print(f"seed {seed}, {seconds} s per run; times in calibrated seconds")
    print(json.dumps(next(iter(runs.values()))[0]["meta"]))
    cols = list(END_TO_END) + ["solve_p90_s", "ops_failed_ratio", "ops"]
    print(f"\n{'workload':<15}" + "".join(f"{c:>18}" for c in cols))
    for w, (plain, _) in runs.items():
        cells = [plain["metrics"][m] for m in END_TO_END]
        cells += [plain["solve_p90_s"], plain["ops_failed_ratio"],
                  plain["attempted"]]
        print(f"{w:<15}" + "".join(f"{c:>18.6g}" for c in cells))
    print(f"{'unit':<15}" + "".join(f"{u:>18}" for u in END_TO_END.values())
          + f"{'s':>18}{'ratio':>18}{'count':>18}")

    print(f"\n{'per layer (traced)':<32}{'unit':>8}"
          + "".join(f"{w:>16}" for w in runs))
    for name, unit in PER_LAYER.items():
        print(f"{name:<32}{unit:>8}" + "".join(
            f"{runs[w][1]['metrics'][name]:>16.6g}" for w in runs))

    print("\ntracing overhead (traced solve_s - untraced solve_s):")
    for w, (plain, traced) in runs.items():
        over = (traced["metrics"]["bench.traced_solve_s"]
                - plain["metrics"]["solve_s"])
        print(f"  {w:<15}{over:+.4g} s "
              f"({100 * over / plain['metrics']['solve_s']:+.1f}%)")

    ok = all(plain["failed"] == 0 and traced["failed"] == 0
             for plain, traced in runs.values())
    print("\nlayer split:")
    for w, text, test in SPLIT:
        holds = test(runs[w][1])
        ok = ok and holds
        print(f"  {w:<15}{text}: {'yes' if holds else 'NO'}")
    shares = runs["design_sweep"][1]["outcomes"]
    total = sum(shares.values())
    print("  design_sweep outcomes: " + ", ".join(
        f"{k} {v / total:.0%}" for k, v in sorted(shares.items())))
    return 0 if ok else 1


def compare(old_path, new_path):
    records = []
    for path in (old_path, new_path):
        with open(path) as fh:
            records.append(json.load(fh))
    old, new = records
    if old["workload"] != new["workload"] or old["trace"] != new["trace"]:
        print("WARNING: the records are of different workloads or modes")
    flag(records)
    print(f"{'metric':<32}{'old':>14}{'new':>14}{'change':>10}")
    for name in old["metrics"]:
        a, b = old["metrics"][name], new["metrics"].get(name, float("nan"))
        change = f"{100 * (b - a) / a:+.1f}%" if a else ""
        print(f"{name:<32}{a:>14.6g}{b:>14.6g}{change:>10}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return summary(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
