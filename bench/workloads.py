"""The benchmark's workloads: seeded inputs, the op each repeats, its gate.

Every workload draws its inputs from a fixed pool of variants.  Variant v
is generated from ``numpy.random.default_rng([tag, v])``; the numbers that
depend on the program (certified dropout and window limits, expected
outcomes, reference trajectories) were computed once by ``make_data.py``
and are stored under ``data/``, so the inputs do not move when the program
changes.  The run's ``--seed`` picks the order in which the pool is used.

stiff_loop     mass-on-car plant, synthesized design at the scenario_a
               settings (q = 0.95, theta = 0.9), one dropout inside the
               certified limits after the funnel has saturated: the
               closed loop is stiff and integration dominates.
dropout_train  the same plant under the scenario_b manual funnel
               1/(5 e^{-t} + 0.2) with three or four 1-2 s dropouts and a
               fine output grid: many segments and rows, CSV dominates.
design_sweep   random state-space plants (m <= 3, r <= 4, up to 4
               internal states) put through ``funnelsim synthesize``'s
               calls; about half end in typed infeasibility errors.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from funnelsim import (
    FunnelSimError,
    ManualDesign,
    SimOptions,
    check_design,
    class_constants,
    cli,
    design,
    design_report,
    integrate,
    read_csv,
    verify,
    write_csv,
)
from funnelsim.controller import AvailabilitySchedule

DATA = Path(__file__).resolve().parent / "data"

# Loop traces are compared with the stored reference at these times.
REF_DT = 0.1
# A sample matches a reference time when it lies this close to it.
TIME_MATCH = 1e-9
# check_design reports plain differences and leaves the slack to the
# caller: phi0_0 = 1/(a + c) can round one ulp above the window's upper end.
# This is the slack the repository's own design tests demand.
MARGIN_SLACK = 1e-12
# Tiny runs (self-test) cut loop horizons to this many seconds.
TINY_HORIZON = 2.0

STIFF_TAG, TRAIN_TAG, DESIGN_TAG = 101, 202, 303
STIFF_POOL, TRAIN_POOL, DESIGN_POOL = 8, 8, 400

SCENARIO_A = {"q": 0.95, "theta": 0.9}
SCENARIO_B_FUNNEL = {"a": 5.0, "b": 1.0, "c": 0.2, "d": 1.0}


# --- variant generators ----------------------------------------------------

def stiff_draw(v):
    """Seeded draws of stiff_loop variant v.

    The dropout is a fraction of the certified supremum and starts a
    factor past the minimal window.  Both ranges are narrow, because the
    step count follows them: beyond 1/theta of the minimal window the
    designed window, and with it the funnel, no longer depends on the
    start, so the start only shifts the horizon.
    """
    rng = np.random.default_rng([STIFF_TAG, v])
    return {"phase": float(rng.uniform(0.0, 0.5)),
            "dropout_factor": float(rng.uniform(0.18, 0.22)),
            "start_factor": float(rng.uniform(1.12, 1.16))}


def stiff_config(draw, dropout_sup, window_min_of):
    """Config of a stiff_loop variant; window_min_of(dropout) -> seconds."""
    dropout = draw["dropout_factor"] * dropout_sup
    start = draw["start_factor"] * window_min_of(dropout)
    return {
        "system": {"mode": "mass_on_car"},
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0,
                      "phase": draw["phase"]},
        "availability": {"dropouts": [[start, start + dropout]]},
        "design": dict(SCENARIO_A),
        # Half a second past reacquisition shows the restarted funnel.  The
        # horizon is a whole number of tenths, as a user would write it:
        # the CSV keeps 12 significant digits, and global_solution compares
        # the last time read back with t_end exactly.
        "sim": {"t_end": math.ceil((start + dropout + 0.5) * 10.0) / 10.0},
    }


def train_config(v, horizon=20.0):
    """Config of dropout_train variant v.

    Dropouts of 1-2 s separated by 3-4 s windows: longer dropouts or
    shorter windows let the coasting plant leave the restarted manual
    funnel at reacquisition, which the manual design does not exclude.
    """
    rng = np.random.default_rng([TRAIN_TAG, v])
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    pairs = []
    t = float(rng.uniform(3.0, 4.0))
    while True:
        d = float(rng.uniform(1.0, 2.0))
        if t + d > horizon - 0.5:
            break
        pairs.append([t, t + d])
        t += d + float(rng.uniform(3.0, 4.0))
    return {
        "system": {"mode": "mass_on_car"},
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0,
                      "phase": phase},
        "availability": {"dropouts": pairs},
        "design": {"manual": True, "funnel": dict(SCENARIO_B_FUNNEL)},
        "sim": {"t_end": horizon, "grid_dt": 2.5e-4},
    }


def design_draw(v):
    """Seeded plant, reference and design settings of design_sweep variant v.

    A random minimum-phase normal form is realised and put through a
    random similarity transform.  One draw in five carries a structural
    fault that must end in a typed error: an unstable zero dynamics, a
    singular high-frequency gain, or a lower Markov parameter inside the
    ambiguous band around zero.  dropout_factor and window_factor place
    the periodic schedule relative to the certified limits.
    """
    rng = np.random.default_rng([DESIGN_TAG, v])
    m = int(rng.integers(1, 4))
    r = int(rng.integers(1, 5))
    k = int(rng.integers(0, 5))
    u = float(rng.uniform())
    fault = ("unstable_zero" if u < 0.08 else
             "singular_gain" if u < 0.14 else
             "ambiguous_zero" if u < 0.20 else None)
    if fault == "unstable_zero":
        k = max(k, 1)
    if fault == "singular_gain":
        m = max(m, 2)
    if fault == "ambiguous_zero":
        r = max(r, 2)

    R = [rng.uniform(-0.6, 0.6, (m, m)) for _ in range(r)]
    Gamma = ((0.6 + rng.uniform()) * np.eye(m)
             + rng.uniform(-0.25, 0.25, (m, m)))
    if rng.uniform() < 0.3:
        Gamma = -Gamma
    if fault == "singular_gain":
        Gamma = np.outer(rng.uniform(0.5, 1.0, m), rng.uniform(0.5, 1.0, m))
    Q = rng.uniform(-0.8, 0.8, (k, k))
    if k:
        shift = max(float(np.linalg.eigvals(Q).real.max()), 0.0)
        Q -= (shift + rng.uniform(0.4, 1.2)) * np.eye(k)
        if fault == "unstable_zero":
            Q = -Q
    S = rng.uniform(-0.5, 0.5, (m, k))
    P = rng.uniform(-0.5, 0.5, (k, m))
    A0, B0, C0 = _realize(R, S, Gamma, Q, P)
    n = A0.shape[0]
    orth, _ = np.linalg.qr(rng.normal(size=(n, n)))
    T = orth @ np.diag(rng.uniform(0.5, 2.0, n))
    Tinv = np.linalg.inv(T)
    A, B, C = T @ A0 @ Tinv, T @ B0, C0 @ Tinv
    if fault == "ambiguous_zero":
        # C B = eps I sits a hundred times above the zero threshold and ten
        # times below the point where it counts as decisively nonzero.
        scale = np.linalg.norm(B, 2) * np.linalg.norm(C, 2)
        lift = np.zeros_like(B0)
        lift[:m] = 1e-8 * (1.0 + scale) * np.eye(m)
        B = T @ (B0 + lift)

    reference = {"kind": "sinusoid",
                 "amplitude": rng.uniform(0.5, 1.5, m).tolist(),
                 "omega": rng.uniform(0.5, 1.5, m).tolist(),
                 "phase": rng.uniform(0.0, 2.0 * math.pi, m).tolist()}
    q = float(rng.uniform(0.6, 0.95))
    theta = float(rng.uniform(0.7, 0.95))
    w = float(rng.uniform())
    if w < 0.55:        # inside both limits
        fd, fw = rng.uniform(0.3, 0.85), rng.uniform(1.15, 2.0)
    elif w < 0.8:       # dropout beyond the certified supremum
        fd, fw = rng.uniform(1.15, 2.0), rng.uniform(1.15, 2.0)
    else:               # window below the certified minimum
        fd, fw = rng.uniform(0.3, 0.85), rng.uniform(0.5, 0.85)
    system = {"mode": "state_space", "A": A.tolist(), "B": B.tolist(),
              "C": C.tolist(), "x0": [0.0] * n}
    return {"system": system, "reference": reference, "q": q,
            "theta": theta, "dropout_factor": float(fd),
            "window_factor": float(fw), "fault": fault}


def _realize(R, S, Gamma, Q, P):
    """(A, B, C) in chain-then-internal coordinates of a normal form."""
    r, m, k = len(R), Gamma.shape[0], Q.shape[0]
    n = r * m + k
    A = np.zeros((n, n))
    A[:(r - 1) * m, m:r * m] = np.eye((r - 1) * m)
    top = slice((r - 1) * m, r * m)
    A[top, :r * m] = np.hstack(R)
    A[top, r * m:] = S
    A[r * m:, :m] = P
    A[r * m:, r * m:] = Q
    B = np.zeros((n, m))
    B[top] = Gamma
    C = np.zeros((m, n))
    C[:, :m] = np.eye(m)
    return A, B, C


def design_config(draw, dropout, window):
    return {
        "system": draw["system"],
        "reference": draw["reference"],
        "availability": {"generator": {"kind": "periodic",
                                       "dropout": dropout,
                                       "window": window}},
        "design": {"q": draw["q"], "theta": draw["theta"]},
    }


# --- ops --------------------------------------------------------------------

def trace_checks(trace, dsg, cc, horizon):
    """The checks ``funnelsim verify`` runs on a trace read back from CSV."""
    checks = [verify.funnel_containment(trace)]
    if not isinstance(dsg, ManualDesign):
        checks.append(verify.input_and_state_bounds(trace, dsg))
    checks.append(verify.internal_envelope_check(trace, cc))
    checks.append(verify.global_solution(trace, horizon))
    return checks


@dataclass
class LoopResult:
    trace: object               # the trace read back from CSV
    checks: list
    stats: dict
    csv_bytes: int
    design: object
    cc: object
    horizon: float


def loop_op(cfg_path, csv_path, tracer):
    """synthesize -> integrate -> write_csv -> read_csv -> verify."""
    with tracer.span("cli.load_config"):
        cfg = cli.load_config(cfg_path)
    with tracer.span("cli.build"):
        nf = cli.build_system(cfg)
        y_ref = cli.build_reference(cfg)
        dsg = cli.build_design(cfg, nf, y_ref)
        horizon = float(cfg["sim"]["t_end"])
        dp = None if isinstance(dsg, ManualDesign) else dsg
        sched = cli.build_schedule(cfg, horizon, dp)
        if dp is not None:
            sched.check_against_design(dp.dropout, dp.window)
    with tracer.span("sysmodel.class_constants"):
        cc = class_constants(nf)
    opts = SimOptions(**{key: cfg["sim"][key]
                         for key in ("rtol", "atol", "grid_dt")
                         if key in cfg["sim"]})
    with tracer.span("simulator.integrate") as attrs:
        trace = integrate(nf, cc, dsg, sched, y_ref, opts=opts)
        attrs.update(trace.stats, rows=trace.samples)
    with tracer.span("simulator.write_csv"):
        write_csv(trace, csv_path)
    with tracer.span("simulator.read_csv"):
        back = read_csv(csv_path)
    with tracer.span("verify.checks"):
        checks = trace_checks(back, dsg, cc, horizon)
    return LoopResult(trace=back, checks=checks, stats=dict(trace.stats),
                      csv_bytes=Path(csv_path).stat().st_size, design=dsg,
                      cc=cc, horizon=horizon)


@dataclass
class DesignResult:
    outcome: str                # "feasible" or the typed error's class name
    margins: dict = field(default_factory=dict)
    iterations: int = 0


def design_op(cfg_path, tracer):
    """What ``funnelsim synthesize --config`` does, without the file write."""
    with tracer.span("cli.load_config"):
        cfg = cli.load_config(cfg_path)
    try:
        with tracer.span("cli.build"):
            nf = cli.build_system(cfg)
            y_ref = cli.build_reference(cfg)
            dp = cli.build_design(cfg, nf, y_ref)
    except FunnelSimError as exc:
        return DesignResult(outcome=type(exc).__name__)
    with tracer.span("design.report"):
        margins = check_design(dp)
        design_report(dp)
    return DesignResult(outcome="feasible", margins=margins,
                        iterations=dp.iterations)


def install_wrappers(tracer):
    """Wrap the cross-module calls the traced run times from outside."""
    tracer.wrap_span(cli, "to_normal_form", "sysmodel.to_normal_form")
    tracer.wrap_span(cli, "synthesize", "design.synthesize")
    tracer.wrap_span(design, "class_constants", "sysmodel.class_constants")
    tracer.wrap_count(AvailabilitySchedule, "availability",
                      "availability_calls")
    tracer.wrap_count(AvailabilitySchedule, "reset_time",
                      "availability_calls")


# --- gates ------------------------------------------------------------------

def _sample_index(trace, t_ref):
    """Indices of the trace samples at times t_ref, or None if one lacks."""
    idx = np.clip(np.searchsorted(trace.t, t_ref - TIME_MATCH), 0,
                  trace.samples - 1)
    if np.any(np.abs(trace.t[idx] - t_ref) > TIME_MATCH):
        return None
    return idx


def reference_samples(trace):
    """The samples of a trace at every multiple of REF_DT it covers."""
    n = int(math.floor(trace.t[-1] / REF_DT + 1e-9))
    t_ref = np.arange(1, n + 1) * REF_DT
    idx = _sample_index(trace, t_ref)
    if idx is None:
        raise ValueError("trace has no sample at some reference time")
    return {"t": t_ref.tolist(), "y": trace.y[idx].tolist(),
            "eta": trace.eta[idx].tolist(),
            "u_norm": trace.u_norm[idx].tolist()}


def reference_deviation(trace, ref):
    """Largest share of the tolerance used by any compared column.

    Each column's deviation is scaled by max(1, its largest reference
    magnitude) and divided by that column's tolerance, so the gate passes
    at 1 or below.  A missing sample counts as infinite deviation.
    """
    t_ref = np.asarray(ref["t"])
    idx = _sample_index(trace, t_ref)
    if idx is None:
        return math.inf
    worst = 0.0
    for col, tol in ref["tolerance"].items():
        want = np.asarray(ref[col], dtype=float).reshape(t_ref.size, -1)
        if want.size == 0:
            continue
        got = np.asarray(getattr(trace, col))[idx].reshape(t_ref.size, -1)
        scale = max(1.0, float(np.abs(want).max()))
        dev = float(np.abs(got - want).max()) / scale / tol
        worst = max(worst, dev if np.isfinite(dev) else math.inf)
    return worst


def loop_gate(res, ref):
    """Failure reasons of one loop op, and its reference deviation."""
    fails = [f"check {c.name} failed: margin {c.margin:.3e} at t={c.at:.6g}"
             for c in res.checks if not c.passed]
    dev = 0.0
    if ref is not None:
        dev = reference_deviation(res.trace, ref)
        if not dev <= 1.0:
            fails.append(f"trace leaves the reference band ({dev:.3g} of "
                         f"the tolerance)")
    return fails, dev


def design_gate(res, expected):
    """Failure reasons of one design_sweep op; empty when it is correct."""
    fails = []
    if res.outcome != expected:
        fails.append(f"outcome {res.outcome}, expected {expected}")
    bad = sorted(k for k, v in res.margins.items()
                 if not v >= -MARGIN_SLACK)
    if bad:
        fails.append(f"negative design margins: {', '.join(bad)}")
    return fails


# --- workloads --------------------------------------------------------------

def _read(name):
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


def _tiny_loop_config(cfg):
    cfg = json.loads(json.dumps(cfg))
    cfg["sim"]["t_end"] = TINY_HORIZON
    cfg["availability"]["dropouts"] = [
        p for p in cfg["availability"]["dropouts"] if p[1] < TINY_HORIZON]
    return cfg


class LoopWorkload:
    """stiff_loop and dropout_train: one closed-loop run per op."""

    def __init__(self, name, tiny=False):
        self.name = name
        self.tiny = tiny
        data = _read(name)
        self.tolerance = data["tolerance"]
        self.variants = data["variants"]

    def prepare(self, v, workdir):
        entry = self.variants[v]
        cfg = entry["config"]
        ref = None
        if self.tiny:
            cfg = _tiny_loop_config(cfg)
        else:
            ref = dict(entry["reference"], tolerance=self.tolerance)
        cfg_path = workdir / f"{self.name}-{v}.json"
        cfg_path.write_text(json.dumps(cfg))
        return {"cfg": cfg_path, "csv": workdir / f"{self.name}-{v}.csv",
                "ref": ref}

    def op(self, prep, tracer):
        return loop_op(prep["cfg"], prep["csv"], tracer)

    def check(self, res, prep):
        """Gate failures and per-op counters; removes the op's CSV."""
        prep["csv"].unlink(missing_ok=True)
        fails, dev = loop_gate(res, prep["ref"])
        counters = {
            "engine": res.stats.get("engine"),
            "steps_accepted": res.stats["accepted"],
            "steps_rejected": res.stats["rejected"],
            "rhs_evals": res.stats["rhs_evals"],
            "segments": res.stats["segments"],
            "rows": res.trace.samples,
            "csv_bytes": res.csv_bytes,
            "min_funnel_margin": res.checks[0].margin,
            "ref_dev": dev,
            "refine_iterations": getattr(res.design, "iterations", 0),
            "feasible": 1,
        }
        return fails, counters


class DesignSweep:
    """design_sweep: one synthesis per op; tiny runs are the same."""

    def __init__(self, name="design_sweep", tiny=False):
        self.name = name
        self.variants = _read(name)["variants"]

    def prepare(self, v, workdir):
        entry = self.variants[v]
        cfg = design_config(design_draw(v), entry["dropout"], entry["window"])
        cfg_path = workdir / f"{self.name}.json"
        cfg_path.write_text(json.dumps(cfg))
        return {"cfg": cfg_path, "expected": entry["outcome"]}

    def op(self, prep, tracer):
        return design_op(prep["cfg"], tracer)

    def check(self, res, prep):
        """Gate failures and per-op counters."""
        feasible = res.outcome == "feasible"
        return design_gate(res, prep["expected"]), {
            "outcome": res.outcome, "feasible": int(feasible),
            "refine_iterations": res.iterations}


WORKLOADS = {"stiff_loop": LoopWorkload, "dropout_train": LoopWorkload,
             "design_sweep": DesignSweep}
