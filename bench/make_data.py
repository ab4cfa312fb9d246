"""Regenerate the benchmark's stored data under data/.

    python3 bench/make_data.py [stiff_loop] [dropout_train] [design_sweep]

For each loop variant this writes the finished config and a reference
trajectory, made by the program's own DP45 stepper at 100x tighter
rtol/atol than the workload runs with and sampled every REF_DT seconds of
simulated time.  For each design_sweep variant it writes the periodic
schedule, placed relative to the certified limits, and the outcome the
program gave.  Run it only when the workloads themselves change: the
stored numbers are what later versions of the program are checked against.
Takes a few minutes.
"""

import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wl  # noqa: E402
from funnelsim import (  # noqa: E402
    ReferenceSignal,
    SimOptions,
    class_constants,
    cli,
    design,
    mass_on_car_normal_form,
    synthesize,
)
from funnelsim.errors import FunnelSimError  # noqa: E402
from tracing import NullTracer  # noqa: E402

# Deviations are scaled by max(1, the column's largest reference value).
# On every stored variant the default run (rtol 1e-8, atol 1e-10) uses at
# most 3.3% of this band against the 100x tighter reference (default_share
# in the data files), so the band is some 30x the run's own error.  u_norm
# gets a wider band because the stiff loop's funnel gain of ~4e3 amplifies
# state error into the input.  A stepper that honours the same rtol stays
# inside; a wrong right-hand side or a lost segment does not.
TOLERANCE = {"y": 1e-5, "eta": 1e-5, "u_norm": 1e-3}
TIGHTEN = 100.0


def _loop_variant(cfg, workdir):
    opts = SimOptions()
    tight = json.loads(json.dumps(cfg))
    tight["sim"]["rtol"] = cfg["sim"].get("rtol", opts.rtol) / TIGHTEN
    tight["sim"]["atol"] = cfg["sim"].get("atol", opts.atol) / TIGHTEN
    runs = {}
    for label, c in (("default", cfg), ("reference", tight)):
        path = workdir / f"make-{label}.json"
        path.write_text(json.dumps(c))
        t0 = time.perf_counter()
        res = wl.loop_op(path, workdir / f"make-{label}.csv", NullTracer())
        runs[label] = (res, time.perf_counter() - t0)
        failed = [c.name for c in res.checks if not c.passed]
        if failed:
            raise SystemExit(f"{label} run fails checks {failed}")
    ref = wl.reference_samples(runs["reference"][0].trace)
    share = wl.reference_deviation(runs["default"][0].trace,
                                   dict(ref, tolerance=TOLERANCE))
    res, seconds = runs["default"]
    print(f"  op {seconds:.2f} s, {res.stats['accepted']} steps, "
          f"{res.trace.samples} rows, default_share {share:.3g}")
    return {"config": cfg, "reference": ref, "default_share": share}


def make_loop(name, configs, workdir):
    variants = []
    for v, cfg in enumerate(configs):
        print(f"{name} variant {v}")
        variants.append(_loop_variant(cfg, workdir))
    return {"tolerance": TOLERANCE, "ref_dt": wl.REF_DT,
            "reference_tightening": TIGHTEN, "variants": variants}


def stiff_configs():
    nf = mass_on_car_normal_form()
    y_ref = ReferenceSignal.sinusoid(1.0, 1.0)
    q, theta = wl.SCENARIO_A["q"], wl.SCENARIO_A["theta"]
    sup = synthesize(nf, y_ref, q, theta=theta).dropout_sup

    def window_min_of(dropout):
        return synthesize(nf, y_ref, q, theta=theta,
                          dropout_limit=dropout).window_min

    return [wl.stiff_config(wl.stiff_draw(v), sup, window_min_of)
            for v in range(wl.STIFF_POOL)]


def _limits(draw):
    """Certified dropout supremum and minimal window for a draw's plant.

    Chain-only plants certify any dropout and need no window, and faulty
    plants never reach the schedule; both get 1 s as the unit instead.
    """
    cfg = wl.design_config(draw, 1.0, 1.0)
    try:
        cc = class_constants(cli.build_system(cfg))
        sup = design.max_dropout_duration(cc, draw["q"])
    except FunnelSimError:
        return 1.0, 1.0
    if not math.isfinite(sup):
        return 1.0, 1.0
    dropout = draw["dropout_factor"] * sup
    try:
        wmin = design.min_availability_duration(cc, draw["q"],
                                                min(dropout, 0.99 * sup))
    except FunnelSimError:
        wmin = 1.0
    return sup, wmin if wmin > 0.0 else 1.0


def make_design(workdir):
    variants = []
    path = workdir / "make-design.json"
    for v in range(wl.DESIGN_POOL):
        draw = wl.design_draw(v)
        sup, wmin = _limits(draw)
        dropout = draw["dropout_factor"] * sup
        window = draw["window_factor"] * wmin
        path.write_text(json.dumps(wl.design_config(draw, dropout, window)))
        res = wl.design_op(path, NullTracer())
        variants.append({"dropout": dropout, "window": window,
                         "outcome": res.outcome, "fault": draw["fault"]})
    print("design_sweep outcomes:",
          dict(Counter(e["outcome"] for e in variants)))
    return {"variants": variants}


def main(argv):
    names = argv or ["stiff_loop", "dropout_train", "design_sweep"]
    workdir = Path(__file__).resolve().parent / ".work" / "make"
    workdir.mkdir(parents=True, exist_ok=True)
    wl.DATA.mkdir(exist_ok=True)
    for name in names:
        if name == "stiff_loop":
            data = make_loop(name, stiff_configs(), workdir)
        elif name == "dropout_train":
            data = make_loop(name, [wl.train_config(v)
                                    for v in range(wl.TRAIN_POOL)], workdir)
        else:
            data = make_design(workdir)
        with open(wl.DATA / f"{name}.json", "w") as fh:
            json.dump(data, fh)
            fh.write("\n")
    for p in workdir.iterdir():
        p.unlink()
    workdir.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
