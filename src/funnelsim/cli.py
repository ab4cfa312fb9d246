"""Configuration-driven command line: synthesize, simulate, verify, reproduce.

Configs are JSON checked against one table of the keys each section reads
and their types (unknown keys and non-finite literals are rejected).  Two
built-in presets drive the benchmark plant: ``scenario_a`` synthesizes a
design and schedules dropouts just inside its certified limits;
``scenario_b`` skips synthesis and runs a user funnel against long
dropouts.  Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 synthesis infeasibility, 4 integration failure or any other
error (one ``error:`` line; FUNNELSIM_LOG=debug logs its traceback).
"""

import argparse
import copy
import json
import logging
import math
import os
import re
import sys
from pathlib import Path

from . import verify
from .controller import AvailabilitySchedule
from .design import FunnelSpec, design_report, start_gain_floor, synthesize
from .errors import ConfigError, FunnelSimError
from .reference import ReferenceSignal
from .simulator import (
    ManualDesign,
    SimOptions,
    integrate,
    read_csv,
    write_csv,
    write_rows,
)
from .sysmodel import (
    NormalForm,
    StateSpace,
    class_constants,
    mass_on_car_normal_form,
    to_normal_form,
)

log = logging.getLogger("funnelsim")

# Values the benchmark scenario is commonly quoted with; the reproduce
# command prints them next to what this implementation computes.
REPORTED = {
    "decay_gain": 2.2477,
    "decay_rate": 0.3305,
    "max_dropout": 5.01e-2,
    "min_window": 18.8,
    "internal_ceiling": 133145.0,
    "settle_gain": 21.4683,
    "funnel_start_floor": 1.4449e-4,
}

MAX_GENERATED_DROPOUTS = 100_000     # dropouts a generator may lay out

PRESETS = {
    "scenario_a": {
        "system": {"mode": "mass_on_car"},
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0},
        "availability": {"generator": {"kind": "from_design",
                                       "dropout_factor": 0.95,
                                       "window_factor": 1.02,
                                       "count": 2}},
        "design": {"q": 0.95, "theta": 0.9},
        "sim": {"t_end": 60.0},
    },
    "scenario_b": {
        "system": {"mode": "mass_on_car"},
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0},
        "availability": {"generator": {"kind": "periodic", "dropout": 2.0,
                                       "window": 3.0, "start": 5.0}},
        "design": {"manual": True,
                   "funnel": {"a": 5.0, "b": 1.0, "c": 0.2, "d": 1.0}},
        "sim": {"t_end": 60.0},
    },
}


# --- configuration ----------------------------------------------------------

# The type of a config value, named as its error names it.
NUM, POS, START = "a number", "a positive number", "a number >= 0"
COUNT, TEXT, FLAG = "a whole number >= 0", "a string", "true or false"
VEC, MAT = "a number list", "a list of equal-length number lists"
MATS = "a matrix list"
NUM_OR_VEC = "a number or a number list"
PAIRS, SECTION = "a list of [start, end] number pairs", "an object"


def _number(x) -> bool:
    return type(x) in (int, float)      # bool is no number


def _list_of(ok):
    return lambda v: type(v) is list and all(map(ok, v))


_vec = _list_of(_number)


def _matrix(v) -> bool:
    return _list_of(_vec)(v) and len(set(map(len, v))) < 2


_IS = {
    NUM: _number,
    POS: lambda v: _number(v) and v > 0,
    START: lambda v: _number(v) and v >= 0,
    COUNT: lambda v: (type(v) is int or type(v) is float
                      and v.is_integer()) and v >= 0,
    VEC: _vec,
    MAT: _matrix,
    MATS: _list_of(_matrix),
    NUM_OR_VEC: lambda v: _number(v) or _vec(v),
    PAIRS: _list_of(lambda pair: _vec(pair) and len(pair) == 2),
    TEXT: lambda v: type(v) is str,
    FLAG: lambda v: type(v) is bool,
    SECTION: lambda v: type(v) is dict,
}

# What a config reads, section by section: (the key naming the section's
# kind, the noun its errors use, and for each kind the keys it requires
# and those it may hold, with their types).  A section with no kind key
# takes the kind of the section holding it; a design is manual or
# synthesized by its manual flag.
_READS = {
    "": (None, "config", {"": (
        {"system": SECTION, "reference": SECTION},
        {"availability": SECTION, "design": SECTION, "sim": SECTION,
         "output": SECTION})}),
    "system": ("mode", "mode", {
        "mass_on_car": ({}, {}),
        "state_space": ({"A": MAT, "B": MAT, "C": MAT}, {"x0": VEC}),
        "normal_form": ({"R": MATS, "Gamma": MAT, "Q": MAT, "P": MAT,
                         "S": MAT}, {"chain0": MAT, "eta0": VEC}),
    }),
    "reference": ("kind", "reference", {
        "constant": ({"values": VEC}, {}),
        "sinusoid": ({"amplitude": NUM_OR_VEC, "omega": NUM_OR_VEC},
                     {"phase": NUM_OR_VEC, "offset": NUM_OR_VEC}),
        "sum_of_sinusoids": ({"amplitudes": MAT, "omegas": MAT},
                             {"phases": MAT, "offset": NUM_OR_VEC}),
    }),
    "availability": (None, "availability", {"": (
        {}, {"dropouts": PAIRS, "generator": SECTION})}),
    "availability.generator": ("kind", "generator", {
        "periodic": ({"dropout": POS, "window": POS},
                     {"start": START, "count": COUNT}),
        "from_design": ({}, {"dropout_factor": POS, "window_factor": POS,
                             "start": START, "count": COUNT}),
    }),
    "design": ("manual", "design", {
        "manual": ({"funnel": SECTION}, {"eta_star": POS}),
        "synthesized": ({"q": NUM}, {
            "theta": NUM, "eta_star": POS, "phi0_0": POS, "rho_factor": POS,
            "funnel": SECTION}),
    }),
    "design.funnel": (None, "design", {
        "manual": ({"a": POS, "b": POS, "c": POS}, {"d": POS}),
        "synthesized": ({"b": POS, "c": POS}, {}),  # a and d are derived
    }),
    "sim": (None, "sim", {"": ({}, dict.fromkeys(
        ("t_end", "rtol", "atol", "grid_dt"), POS))}),
    "output": (None, "output", {"": ({}, dict.fromkeys(
        ("trace", "report", "design_report"), TEXT))}),
}


def _walk(sec: dict, path: str = "", kind: str = "") -> None:
    """Check the section at path, then the sections it holds: its kind,
    every key the kind requires, no key it does not read, and each
    value's type."""
    field, noun, kinds = _READS[path]
    if field == "manual":
        flag = sec.get(field, False)
        if not _IS[FLAG](flag):
            raise ConfigError(f"{path}.{field} must be {FLAG}")
        kind = "manual" if flag else "synthesized"
    elif field is not None:
        kind = sec.get(field)
        if type(kind) is not str or kind not in kinds:
            raise ConfigError(f"{path}.{field} must be one of "
                              + ", ".join(kinds))
    required, optional = kinds[kind]
    label = f"{kind} {noun}".lstrip()
    at = path + "." if path else ""
    for key in required:
        if key not in sec:
            raise ConfigError(f"{label} requires {at}{key}")
    for key, value in sec.items():
        if key == field:
            continue
        want = required.get(key) or optional.get(key)
        if want is None:
            raise ConfigError(f"{label} does not read {at}{key}")
        if not _IS[want](value):
            raise ConfigError(f"{at}{key} must be {want}")
        if want is SECTION:
            _walk(value, at + key, kind)


def _reject_nonfinite(token):
    raise ValueError(f"non-finite literal {token!r} is not allowed")


def load_config(path=None, preset=None) -> dict:
    if (path is None) == (preset is None):
        raise ConfigError("exactly one of --config and --preset is required")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        cfg = copy.deepcopy(PRESETS[preset])
    else:
        cfg = json.loads(Path(path).read_text(),
                         parse_constant=_reject_nonfinite)
    if not _IS[SECTION](cfg):
        raise ConfigError(f"a config must be {SECTION}")
    _walk({"design": {}, **cfg})    # no design section is a synthesized one
    if {"dropouts", "generator"} <= cfg.get("availability", {}).keys():
        raise ConfigError("availability takes dropouts or a generator, "
                          "not both")
    return cfg


def build_system(cfg: dict) -> NormalForm:
    sec = cfg["system"]
    if sec["mode"] == "mass_on_car":
        return mass_on_car_normal_form()
    if sec["mode"] == "state_space":
        return to_normal_form(StateSpace(sec["A"], sec["B"], sec["C"],
                                         x0=sec.get("x0")))
    # NormalForm converts the blocks and zeroes a missing start state
    return NormalForm(R=sec["R"], S=sec["S"], Gamma=sec["Gamma"], Q=sec["Q"],
                      P=sec["P"], chain0=sec.get("chain0"),
                      eta0=sec.get("eta0"))


# sum_of_sinusoids keys for the ReferenceSignal arguments its errors name
_SUM_KEYS = {"amplitude": "amplitudes", "omega": "omegas", "phase": "phases"}


def build_reference(cfg: dict) -> ReferenceSignal:
    """The config's reference; a shape the constructor refuses is a
    ConfigError naming the dotted keys."""
    sec = cfg["reference"]
    try:
        if sec["kind"] == "constant":       # m outputs with no cosine terms
            rows = [[]] * len(sec["values"])
            return ReferenceSignal(sec["values"], rows, rows, rows)
        if sec["kind"] == "sinusoid":
            return ReferenceSignal(sec.get("offset", 0.0), sec["amplitude"],
                                   sec["omega"], sec.get("phase", 0.0))
        # rows are outputs and columns terms; [] is one output with no terms
        terms = (sec["amplitudes"], sec["omegas"], sec.get("phases", 0.0))
        return ReferenceSignal(sec.get("offset", 0.0),
                               *([[]] if v == [] else v for v in terms))
    except ValueError as exc:
        keys = _SUM_KEYS if sec["kind"] == "sum_of_sinusoids" else {}
        named = re.sub(r"\b(offset|amplitude|omega|phase)\b",
                       lambda arg: "reference." + keys.get(arg[0], arg[0]),
                       str(exc))
        raise ConfigError(named if named != str(exc)
                          else f"reference: {exc}") from None


def _generated_pairs(gen: dict, horizon: float, dp) -> list:
    if gen["kind"] == "from_design":
        if dp is None:
            raise ConfigError(
                "from_design availability requires a synthesized design")
        dlen = gen.get("dropout_factor", 0.95) * dp.dropout
        wlen = gen.get("window_factor", 1.0) * dp.window
    else:
        dlen, wlen = gen["dropout"], gen["window"]
    start = gen.get("start", wlen)
    if not (dlen > 0 and wlen > 0):
        raise ConfigError("generated dropouts and windows must be positive")
    count = gen.get("count")
    if (count is None or count > MAX_GENERATED_DROPOUTS) and (
            (horizon - start) / (dlen + wlen) > MAX_GENERATED_DROPOUTS):
        raise ConfigError("generator lays out more than "
                          f"{MAX_GENERATED_DROPOUTS} dropouts")
    pairs = []
    t = start
    while t + dlen <= horizon and (count is None or len(pairs) < count):
        if pairs and not t > pairs[-1][1]:
            raise ConfigError(f"generated window length {wlen:g} does not "
                              f"advance t = {pairs[-1][1]:g}")
        if not t + dlen > t:
            raise ConfigError(f"generated dropout length {dlen:g} does "
                              f"not advance t = {t:g}")
        pairs.append((t, t + dlen))
        t += dlen + wlen
    return pairs


def build_schedule(cfg: dict, horizon: float, dp=None) -> AvailabilitySchedule:
    sec = cfg.get("availability", {})
    gen = sec.get("generator")
    pairs = (sec.get("dropouts", []) if gen is None
             else _generated_pairs(gen, horizon, dp))
    return AvailabilitySchedule(pairs, horizon)


def _schedule_limits(cfg: dict):
    """Dropout/window bounds for synthesis; the lead-in counts as a window."""
    sec = cfg.get("availability", {})
    gen = sec.get("generator")
    if gen is not None and gen["kind"] == "periodic":
        window, start = gen["window"], gen.get("start", gen["window"])
        return gen["dropout"], min(window, start) if start > 0 else window
    lengths, windows = AvailabilitySchedule.spans(sec.get("dropouts", []))
    return max(lengths, default=None), min(windows.values(), default=None)


def build_design(cfg: dict, nf: NormalForm, y_ref: ReferenceSignal):
    """Synthesized DesignParams, or a ManualDesign when synthesis is off."""
    if y_ref.m != nf.m:
        raise ConfigError(f"reference output count {y_ref.m} differs from "
                          f"the plant's {nf.m}")
    _, chain_sup, y_max = y_ref.sup_bounds(nf.r)
    if not math.isfinite(chain_sup + y_max):
        raise ConfigError("reference derivative bounds overflow to inf")
    sec = cfg.get("design", {})
    fun = sec.get("funnel")
    if sec.get("manual", False):
        spec = FunnelSpec(fun["a"], fun["b"], fun["c"],
                          fun.get("d", fun["b"]))
        return ManualDesign(spec, **_given(sec, eta_star="internal_cap"))
    dropout_limit, availability_floor = _schedule_limits(cfg)
    template = None if fun is None else (fun["b"], fun["c"])
    return synthesize(nf, y_ref, sec["q"], dropout_limit=dropout_limit,
                      availability_floor=availability_floor,
                      funnel_template=template,
                      **_given(sec, theta="theta", eta_star="internal_cap",
                               phi0_0="phi00", rho_factor="settle_factor"))


def _given(sec: dict, **names) -> dict:
    """Keyword arguments for the keys sec sets, each under the argument
    name its key maps to; a key left out takes the callee's default."""
    return {arg: sec[key] for key, arg in names.items() if key in sec}


def _sim_options(cfg: dict) -> SimOptions:
    return SimOptions(**_given(cfg.get("sim", {}), rtol="rtol", atol="atol",
                               grid_dt="grid_dt"))


def _horizon(cfg: dict) -> float:
    sec = cfg.get("sim", {})
    if "t_end" not in sec:
        raise ConfigError("sim.t_end is required")
    return float(sec["t_end"])


def _out_path(outdir: Path, cfg: dict, key: str, default: str) -> Path:
    # an absolute name replaces outdir
    return outdir / cfg.get("output", {}).get(key, default)


# --- discrepancy table ------------------------------------------------------

def discrepancy_table(dp) -> str:
    """Side-by-side of commonly quoted benchmark values vs recomputed ones."""
    cc = dp.cc
    rows = [
        ("decay_gain", REPORTED["decay_gain"], cc.M),
        ("decay_rate", REPORTED["decay_rate"], cc.mu),
        ("max_dropout", REPORTED["max_dropout"], dp.dropout),
        ("min_window", REPORTED["min_window"], dp.window),
        ("internal_ceiling", REPORTED["internal_ceiling"], dp.internal_cap),
        ("settle_gain", REPORTED["settle_gain"], dp.gains.required_level),
        ("funnel_start_floor", REPORTED["funnel_start_floor"], dp.gain_lo),
    ]
    lines = ["DISCREPANCY REPORT (mass-on-car benchmark)",
             f"{'quantity':<20}{'reported':>14}{'recomputed':>22}"]
    for name, rep, ours in rows:
        lines.append(f"{name:<20}{rep:>14g}{ours:>22.10e}")
    lines.append(f"{'funnel_start_ceiling':<20}{'':>14}{dp.gain_hi:>22.10e}")
    floor_at_reported = start_gain_floor(cc, REPORTED["internal_ceiling"])
    lines += [
        "",
        "consistency at the reported values:",
        f"  start floor formula at ceiling 133145: "
        f"{floor_at_reported:.10e} (reported 1.4449e-04)",
        f"  certifiable dropout supremum: {dp.dropout_sup:.10e}; the "
        f"reported max_dropout {REPORTED['max_dropout']:g} exceeds it,",
        "  so the recomputed design keeps its own feasible dropout/window "
        "pair.",
    ]
    return "\n".join(lines) + "\n"


# --- commands ---------------------------------------------------------------

def cmd_synthesize(cfg: dict, outdir: Path) -> int:
    nf = build_system(cfg)
    y_ref = build_reference(cfg)
    dp = build_design(cfg, nf, y_ref)
    if isinstance(dp, ManualDesign):
        raise ConfigError("design.manual skips synthesis; nothing to do")
    text = design_report(dp)
    if cfg["system"]["mode"] == "mass_on_car":
        text += "\n" + discrepancy_table(dp)
    path = _out_path(outdir, cfg, "design_report", "design_report.txt")
    _publish(path, text)
    log.info("design report written to %s", path)
    return 0


def _build_run(cfg: dict):
    """Plant, reference, design, horizon and schedule of a run."""
    nf = build_system(cfg)
    y_ref = build_reference(cfg)
    design = build_design(cfg, nf, y_ref)
    horizon = _horizon(cfg)
    dp = None if isinstance(design, ManualDesign) else design
    return nf, y_ref, design, horizon, build_schedule(cfg, horizon, dp)


def _run_simulation(cfg: dict):
    nf, y_ref, design, horizon, sched = _build_run(cfg)
    if not isinstance(design, ManualDesign):
        for note in sched.check_against_design(design.dropout, design.window):
            log.warning("%s", note)
    cc = class_constants(nf)
    trace = integrate(nf, cc, design, sched, y_ref, opts=_sim_options(cfg))
    return trace, design, cc, horizon


def cmd_simulate(cfg: dict, outdir: Path) -> int:
    trace, _, _, _ = _run_simulation(cfg)
    path = _out_path(outdir, cfg, "trace", "trace.csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(trace, path)
    print(f"trace written to {path} ({trace.samples} samples)")
    return 0


def _publish(path: Path, text: str) -> None:
    """Write a report to path and to standard output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    sys.stdout.write(text)


def _check_trace(trace, design, cc, horizon, path) -> bool:
    """Run the trace checks and publish their report; True if all pass."""
    checks = [verify.funnel_containment(trace)]
    if not isinstance(design, ManualDesign):
        checks.append(verify.input_and_state_bounds(trace, design))
    checks.append(verify.internal_envelope_check(trace, cc))
    checks.append(verify.global_solution(trace, horizon))
    _publish(path, verify.report_lines(checks) + "\n")
    return all(c.passed for c in checks)


def cmd_verify(cfg: dict, outdir: Path) -> int:
    path = _out_path(outdir, cfg, "trace", "trace.csv")
    trace = read_csv(path)
    if trace.samples == 0:
        raise ConfigError(f"{path}: trace has no samples")
    # what simulate would refuse is refused here too
    nf, _, design, horizon, _ = _build_run(cfg)
    ok = _check_trace(trace, design, class_constants(nf), horizon,
                      _out_path(outdir, cfg, "report", "verify_report.txt"))
    return 0 if ok else 1


def cmd_reproduce(preset: str | None, outdir: Path) -> int:
    names = [preset] if preset else ["scenario_a", "scenario_b"]
    all_pass = True
    dp_bench = None
    for name in names:
        cfg = load_config(preset=name)
        subdir = outdir / name
        subdir.mkdir(parents=True, exist_ok=True)
        trace, design, cc, horizon = _run_simulation(cfg)
        write_csv(trace, subdir / "trace.csv")
        if not isinstance(design, ManualDesign):
            (subdir / "design_report.txt").write_text(design_report(design))
            dp_bench = design
        ok = _check_trace(trace, design, cc, horizon,
                          subdir / "verify_report.txt")
        all_pass = all_pass and ok
        print(f"SCENARIO {name} {'PASS' if ok else 'FAIL'}")

    # benchmark discrepancies are reported, never failed on
    if dp_bench is None:
        cfg = load_config(preset="scenario_a")
        nf = build_system(cfg)
        dp_bench = build_design(cfg, nf, build_reference(cfg))
    _publish(outdir / "discrepancy_report.txt", discrepancy_table(dp_bench))
    return 0 if all_pass else 1


def cmd_plot_data(trace_path: Path, outdir: Path) -> int:
    """Three gnuplot-ready column files split at availability jumps.

    Comma-separated with a leading comment header; rows where the funnel
    is inactive leave the radius columns empty; a blank line at every
    availability transition keeps curves from being drawn across gaps.
    """
    trace = read_csv(trace_path)
    m, kdim = trace.m, trace.internal_dim
    files = [
        ("error_funnel.dat", ["t", "e_norm", "psi_upper", "psi_lower"],
         (trace.t, trace.e_norm, trace.psi, -trace.psi), (2, 3)),
        ("input.dat", ["t"] + [f"u_{j + 1}" for j in range(m)] + ["u_norm"],
         (trace.t, trace.u, trace.u_norm), ()),
        ("internal.dat",
         ["t"] + [f"eta_{i + 1}" for i in range(kdim)] + ["eta_norm"],
         (trace.t, trace.eta, trace.eta_norm), ()),
    ]
    outdir.mkdir(parents=True, exist_ok=True)
    for name, header, cols, blank in files:
        with open(outdir / name, "w") as fh:
            fh.write("# " + ",".join(header) + "\n")
            write_rows(fh, trace.a, cols, blank, gaps=True)
    print(f"plot data written to {outdir}")
    return 0


# --- entry point ------------------------------------------------------------

def _setup_logging():
    level_name = os.environ.get("FUNNELSIM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="funnelsim",
        description="Funnel controller synthesis and closed-loop simulation "
                    "under output measurement dropouts.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in configuration")
        sp.add_argument("--out", default=".", help="output directory")

    for name, txt in (("synthesize", "run the design pipeline"),
                      ("simulate", "run the closed loop and write the trace"),
                      ("verify", "check a written trace against its design"),
                      ):
        common(sub.add_parser(name, help=txt))

    rep = sub.add_parser("reproduce",
                         help="run the built-in scenarios end to end")
    rep.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="limit to one scenario")
    rep.add_argument("--out", default=".", help="output directory")

    pd = sub.add_parser("plot-data",
                        help="emit gnuplot-ready columns from a trace")
    pd.add_argument("--trace", required=True, help="trace CSV to convert")
    pd.add_argument("--out", default=".", help="output directory")
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        if args.command == "plot-data":
            return cmd_plot_data(Path(args.trace), outdir)
        if args.command == "reproduce":
            outdir.mkdir(parents=True, exist_ok=True)
            return cmd_reproduce(args.preset, outdir)
        cfg = load_config(args.config, args.preset)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "synthesize":
            return cmd_synthesize(cfg, outdir)
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir)
        return cmd_verify(cfg, outdir)
    except Exception as exc:    # exit 1 means only that a check failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, FunnelSimError):
            return exc.exit_code
        if isinstance(exc, (OSError, ValueError)):
            return 2
        log.debug("unexpected error", exc_info=True)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
