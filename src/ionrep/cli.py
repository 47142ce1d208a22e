"""Command-line front end.

One JSON config document drives every subcommand; flags override file values,
which override baseline defaults. All numeric output passes through a single
9-significant-digit formatter so text, JSON, and CSV renderings of the same
result carry identical values, and a fixed seed reproduces identical bytes.
Times cross this interface in microseconds and are converted to seconds
internally. NaN is spelled "nan" in every format (JSON has no NaN literal).

Exit codes: 0 success, 2 config error, 3 infeasible, 4 validation failure.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from typing import NamedTuple, Optional

from .figures import CSV_COLUMNS, FIGURES, curve_rows, reduce_row
from .mcsim import SimConfig, run_protocol_sim, validate_against_analytic
from .model import (
    ChainLayout,
    HardwareProfile,
    NoiseParams,
    OpticalParams,
    StepCountError,
    TimingParams,
    heralding_time,
)
from .optimize import (
    MAX_L_POINTS,
    Constraints,
    InfeasibleError,
    SearchBounds,
    distance_grid,
    optimize_rate,
    sweep_distance,
)
from .rates import FeasibilityError, RateReport, classification_path, evaluate_rate

SPEC_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

US = 1e-6

FORMATS = ("text", "json", "csv")


class _Field(NamedTuple):
    path: str          # "section.key", or "key" at the top level
    default: object
    kind: str          # num, int, str, fmt, numlist
    nullable: bool
    group: str         # flag group: which subcommands take the flag
    dest: str = ""     # the flag's dest, when it is not the path's key

    @property
    def flag(self) -> str:
        return self.dest or self.path.rpartition(".")[2]


# Every config field once, in DEFAULTS order.
_FIELDS = (
    _Field("hardware.eta_c", 0.3, "num", False, "hw"),
    _Field("hardware.eta_d", 0.8, "num", False, "hw"),
    _Field("hardware.alpha_db_per_km", 0.2, "num", False, "hw"),
    _Field("hardware.refractive_index", 1.47, "num", False, "hw"),
    _Field("hardware.tau_us", 1.0, "num", False, "hw"),
    _Field("hardware.tau_g_us", 1.0, "num", False, "hw"),
    _Field("hardware.tau_o_us", 50.0, "num", False, "hw"),
    _Field("hardware.tau_m_us", 6e7, "num", False, "hw"),
    _Field("hardware.f0", 0.9999, "num", False, "hw"),
    _Field("hardware.eps_g", 1e-4, "num", False, "hw"),
    _Field("hardware.memory_margin", 10.0, "num", False, "hw"),
    _Field("layout.l_km", 150.0, "num", False, "layout"),
    _Field("layout.n", None, "int", True, "layout"),
    _Field("layout.spatial_mux", 10, "int", False, "layout"),
    _Field("layout.time_mux", None, "int", True, "layout"),
    _Field("sweep.l_min_km", 10.0, "num", False, "sweep"),
    _Field("sweep.l_max_km", 500.0, "num", False, "sweep"),
    _Field("sweep.l_step_km", 10.0, "num", False, "sweep"),
    _Field("sweep.l_list_km", None, "numlist", True, "sweep"),
    _Field("bounds.n_max", 600, "int", False, "bounds"),
    _Field("bounds.m_max", 2000, "int", False, "bounds"),
    _Field("constraints.n_o_max", None, "int", True, "cons"),
    _Field("constraints.n_m_max", None, "int", True, "cons"),
    _Field("constraints.fixed_l0_km", None, "num", True, "cons"),
    _Field("constraints.fixed_n", None, "int", True, "cons"),
    _Field("constraints.tau_min_us", None, "num", True, "cons"),
    _Field("sim.num_blocks", 100000, "int", False, "sim"),
    _Field("sim.n_comm_ions", 0, "int", False, "sim"),
    _Field("sim.n_mem_ions", 0, "int", False, "sim"),
    _Field("sim.p_override", None, "num", True, "sim"),
    _Field("output.format", "text", "fmt", False, "io"),
    _Field("output.path", None, "str", True, "io", dest="output"),
    _Field("output.dir", ".", "str", False, "out_dir", dest="out_dir"),
    _Field("seed", 0, "int", False, "sim"),
)
_BY_PATH = {f.path: f for f in _FIELDS}


def _put(doc: dict, path: str, value) -> None:
    section, _, key = path.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[key] = value


DEFAULTS: dict = {}
for _f in _FIELDS:
    _put(DEFAULTS, _f.path, _f.default)


class CliError(Exception):
    def __init__(self, code: int, message: str, binding: Optional[list] = None):
        super().__init__(message)
        self.code = code
        self.binding = binding
        self.style: Optional[str] = None  # the format to render it in, if known


def _is_num(v) -> bool:
    # json and argparse's float both accept NaN and infinities
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


_VALID = {  # kind -> test of a file or flag value
    "num": _is_num,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "fmt": lambda v: v in FORMATS,
    "numlist": lambda v: isinstance(v, list) and all(_is_num(x) for x in v),
}


def _check_value(field: _Field, value) -> None:
    if value is None:
        if field.nullable:
            return
        raise CliError(EXIT_CONFIG, f"config field {field.path} must not be null")
    if not _VALID[field.kind](value):
        raise CliError(EXIT_CONFIG,
                       f"config field {field.path} has invalid value {value!r} (expected "
                       f"{'finite ' if field.kind.startswith('num') else ''}{field.kind})")


def _merge_file(cfg: dict, user) -> None:
    """Check each field of a parsed config file and write it into cfg."""
    if not isinstance(user, dict):
        raise CliError(EXIT_CONFIG, "config root must be a JSON object")
    for key, value in user.items():
        if key not in DEFAULTS:
            raise CliError(EXIT_CONFIG, f"unknown config key: {key}")
        if not isinstance(DEFAULTS[key], dict):
            fields = {key: value}
        elif isinstance(value, dict):
            fields = {f"{key}.{field}": fval for field, fval in value.items()}
        else:
            raise CliError(EXIT_CONFIG, f"config section {key} must be an object")
        for path, fval in fields.items():
            if path not in _BY_PATH:
                raise CliError(EXIT_CONFIG, f"unknown config key: {path}")
            _check_value(_BY_PATH[path], fval)
            _put(cfg, path, fval)


def load_config(path: Optional[str], flags: argparse.Namespace) -> dict:
    """defaults <- config file <- command-line flags."""
    cfg = copy.deepcopy(DEFAULTS)
    user: object = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as err:
            raise CliError(EXIT_CONFIG, f"cannot read config: {err}")
        except UnicodeDecodeError as err:
            raise CliError(EXIT_CONFIG, f"config is not valid UTF-8: {err}")
        except json.JSONDecodeError as err:
            raise CliError(EXIT_CONFIG, f"config is not valid JSON: {err}")
    try:
        _merge_file(cfg, user)
        for field in _FIELDS:
            value = getattr(flags, field.flag, None)
            if value is not None:
                _check_value(field, value)  # the same checks as file values
                _put(cfg, field.path, value)
    except CliError as err:  # main renders it as --format, else the file, asks
        out = user.get("output") if isinstance(user, dict) else None
        err.style = flags.format or (out.get("format") if isinstance(out, dict) else None)
        raise
    return cfg


def make_hardware(cfg: dict) -> HardwareProfile:
    h = cfg["hardware"]
    try:
        return HardwareProfile(
            optical=OpticalParams(eta_c=h["eta_c"], eta_d=h["eta_d"],
                                  alpha_db_per_km=h["alpha_db_per_km"],
                                  refractive_index=h["refractive_index"]),
            timing=TimingParams(tau=h["tau_us"] * US, tau_g=h["tau_g_us"] * US,
                                tau_o=h["tau_o_us"] * US, tau_m=h["tau_m_us"] * US),
            noise=NoiseParams(f0=h["f0"], eps_g=h["eps_g"]),
            memory_margin=h["memory_margin"],
        )
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid hardware config: {err}")


def make_layout(cfg: dict, need_n: bool = True, need_m: bool = True) -> ChainLayout:
    lay = cfg["layout"]
    if need_n and lay["n"] is None:
        raise CliError(EXIT_CONFIG, "config field layout.n is required here")
    if need_m and lay["time_mux"] is None:
        raise CliError(EXIT_CONFIG, "config field layout.time_mux is required here")
    try:
        return ChainLayout(total_distance_km=lay["l_km"],
                           n_repeaters=lay["n"] if lay["n"] is not None else 0,
                           spatial_mux=lay["spatial_mux"],
                           time_mux=lay["time_mux"] if lay["time_mux"] is not None else 1)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid layout config: {err}")


def make_bounds(cfg: dict) -> SearchBounds:
    # no prefix: SearchBounds' messages already name bounds.n_max and bounds.m_max
    return SearchBounds(n_max=cfg["bounds"]["n_max"], m_max=cfg["bounds"]["m_max"])


def make_constraints(cfg: dict) -> Optional[Constraints]:
    c = cfg["constraints"]
    if all(v is None for v in c.values()):
        return None
    try:
        return Constraints(
            n_o_max=c["n_o_max"], n_m_max=c["n_m_max"],
            fixed_l0_km=c["fixed_l0_km"], fixed_n=c["fixed_n"],
            tau_min=None if c["tau_min_us"] is None else c["tau_min_us"] * US)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid constraints config: {err}")


def make_l_grid(cfg: dict) -> list[float]:
    sw = cfg["sweep"]
    if sw["l_list_km"] is not None:
        grid = [float(v) for v in sw["l_list_km"]]
        if not grid or not all(a < b for a, b in zip([0.0] + grid, grid)):
            raise CliError(EXIT_CONFIG, "config field sweep.l_list_km must be positive "
                                        f"and strictly increasing, got {sw['l_list_km']}")
        return grid
    lo, hi, step = sw["l_min_km"], sw["l_max_km"], sw["l_step_km"]
    if step <= 0 or lo <= 0 or hi < lo:
        raise CliError(EXIT_CONFIG,
                       "sweep grid needs l_min_km > 0, l_step_km > 0, "
                       "l_max_km >= l_min_km")
    try:
        return distance_grid(lo, hi, step)
    except ValueError as err:  # past the checks above, only the MAX_L_POINTS cap
        raise CliError(EXIT_CONFIG, f"config field sweep.{err}")


# ---------------------------------------------------------------- rendering

def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _json_safe(v):
    """The same rounded value fmt_value prints, as a JSON-native type."""
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return fmt_value(v)
        return float(f"{v:.9g}")
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _text_lines(doc, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                lines.extend(_text_lines(value, f"{prefix}{key}."))
            else:
                lines.append(f"{prefix}{key}: {fmt_value(value)}")
    elif isinstance(doc, list):
        label = prefix[:-1] if prefix.endswith(".") else prefix
        for i, value in enumerate(doc):
            if isinstance(value, (dict, list)):
                lines.extend(_text_lines(value, f"{prefix}{i}."))
            else:
                lines.append(f"{label}: {fmt_value(value)}")
    return lines


def _csv_text(header: list[str], rows: list[dict]) -> str:
    out = [",".join(header)]
    out.extend(",".join(fmt_value(row[c]) for c in header) for row in rows)
    return "\n".join(out) + "\n"


def _flat_row(doc: dict, prefix: str = "") -> dict:
    row: dict = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            row.update(_flat_row(value, f"{prefix}{key}."))
        elif isinstance(value, list):
            continue  # path lists and check lists have no tabular shape
        else:
            row[f"{prefix}{key}"] = value
    return row


def _write(path: str, text: str, field: str) -> None:
    """Write a file; failing is a config error that names the field."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(EXIT_CONFIG, f"cannot write {field}: {err}")


def emit(cfg: dict, command: str, payload: dict,
         csv_table: Optional[tuple[list[str], list[dict]]] = None) -> None:
    """Render payload in the configured format to stdout or output.path."""
    style = cfg["output"]["format"]
    if style == "json":
        doc = {"spec_version": SPEC_VERSION, "command": command}
        doc.update(_json_safe(payload))
        text = json.dumps(doc, indent=2) + "\n"
    elif style == "csv":
        if csv_table is None:
            flat = _flat_row(payload)
            csv_table = (list(flat), [flat])
        text = _csv_text(*csv_table)
    else:
        text = "\n".join(_text_lines(payload)) + "\n"
    path = cfg["output"]["path"]
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text, "output.path")


def report_doc(report: RateReport) -> dict:
    """The report in RateReport field order, with its seconds as microseconds."""
    return {(k[:-2] + "_us" if k.endswith("_s") else k): (v / US if k.endswith("_s") else v)
            for k, v in report.to_dict().items()}


# ---------------------------------------------------------------- commands

def cmd_rate(cfg: dict) -> int:
    layout = make_layout(cfg)
    hw = make_hardware(cfg)
    try:
        report = evaluate_rate(layout, hw)
    except FeasibilityError as err:
        raise CliError(EXIT_INFEASIBLE, str(err), binding=[err.constraint])
    emit(cfg, "rate", {"result": report_doc(report)})
    return EXIT_OK


def cmd_classify(cfg: dict, l0_km: Optional[float]) -> int:
    hw = make_hardware(cfg)
    blame = ""
    if l0_km is None:
        layout = make_layout(cfg, need_m=False)
        l0_km, blame = layout.link_length_km, "config field layout.l_km: "
    if not 0 < l0_km < math.inf:
        raise CliError(EXIT_CONFIG, f"l0_km must be positive and finite, got {l0_km}")
    t = heralding_time(l0_km, hw.optical.refractive_index)
    # classification counts no steps, so only the reported T must be finite
    if not math.isfinite(t / US):
        raise CliError(EXIT_CONFIG, f"{blame}l0_km={l0_km:.6g} km is too long: "
                                    "its heralding time overflows")
    path = classification_path(hw.timing, t)
    emit(cfg, "classify", {
        "l0_km": l0_km,
        "heralding_time_us": t / US,
        "path": path,
        "regime": path[-1].split()[-1],
    })
    return EXIT_OK


def cmd_optimize(cfg: dict) -> int:
    hw = make_hardware(cfg)
    constraints = make_constraints(cfg)  # a bad constraint is reported before a bad bound
    res = optimize_rate(cfg["layout"]["l_km"], cfg["layout"]["spatial_mux"], hw,
                        bounds=make_bounds(cfg), constraints=constraints)
    payload = {
        "result": {
            "n_opt": res.n_opt,
            "m_opt": res.m_opt,
            "l0_km": cfg["layout"]["l_km"] / (res.n_opt + 1),
            "evaluations": res.evaluations,
            "boundary_hit_n": res.boundary_hit_n,
            "boundary_hit_m": res.boundary_hit_m,
            "report": report_doc(res.report),
        }
    }
    emit(cfg, "optimize", payload)
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    hw = make_hardware(cfg)
    grid = make_l_grid(cfg)
    constraints = make_constraints(cfg)  # a bad constraint is reported before a bad bound
    raw = sweep_distance(grid, cfg["layout"]["spatial_mux"], hw,
                         bounds=make_bounds(cfg), constraints=constraints)
    rows = []
    for r in raw:
        row = reduce_row(r, "noisy_rate")
        row["infeasible_reason"] = r.infeasible_reason or ""
        rows.append(row)
    emit(cfg, "sweep", {"rows": rows},
         csv_table=(list(CSV_COLUMNS) + ["infeasible_reason"], rows))
    return EXIT_OK


def cmd_figure(cfg: dict, fig_ids: list[str]) -> int:
    if cfg["output"]["format"] == "csv":
        raise CliError(EXIT_CONFIG,
                       "figure writes CSV files itself; use --format text or json")
    hw = make_hardware(cfg)
    grid = make_l_grid(cfg)
    bounds = make_bounds(cfg)
    out_dir = cfg["output"]["dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise CliError(EXIT_CONFIG, f"cannot write output.dir: {err}")
    ids = list(dict.fromkeys(i for arg in fig_ids
                             for i in (sorted(FIGURES) if arg == "all" else [arg])))
    sweeps: dict = {}  # this call's sweeps, shared by curves with the same key
    files = []
    for fig_id in ids:
        for curve in FIGURES[fig_id][1]:
            rows = curve_rows(curve, grid, hw, bounds, sweeps)
            path = os.path.join(out_dir, f"{fig_id}_{curve.label}.csv")
            _write(path, _csv_text(list(CSV_COLUMNS), rows), "output.dir")
            files.append(path)
    emit(cfg, "figure", {"figure": " ".join(ids),
                         "description": "; ".join(FIGURES[i][0] for i in ids),
                         "files": files})
    return EXIT_OK


def cmd_simulate(cfg: dict, validate: bool, trace_path: Optional[str]) -> int:
    layout = make_layout(cfg)
    hw = make_hardware(cfg)
    sim = cfg["sim"]
    try:
        config = SimConfig.from_profile(
            layout, hw, num_blocks=sim["num_blocks"], seed=cfg["seed"],
            p_override=sim["p_override"], n_comm_ions=sim["n_comm_ions"],
            n_mem_ions=sim["n_mem_ions"], trace=trace_path is not None)
    except StepCountError:
        raise  # main names the fields behind the step count
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid sim config: {err}")
    stats = run_protocol_sim(config)
    payload: dict = {"result": {
        "waits_for_herald": config.waits_for_herald, "j_steps": config.j_steps,
        "k_steps": config.k_steps, "p": config.p,
        **{k: v for k, v in vars(stats).items() if k != "trace"}}}
    if trace_path is not None:
        _write(trace_path, "\n".join(stats.trace) + "\n", "--trace")
        payload["trace_path"] = trace_path
    code = EXIT_OK
    if validate:
        try:
            report = evaluate_rate(layout, hw)
        except FeasibilityError as err:
            raise CliError(EXIT_INFEASIBLE, str(err), binding=[err.constraint])
        verdict = validate_against_analytic(config, report)
        payload["validation"] = dict(vars(verdict))
        if not verdict.passed:
            code = EXIT_VALIDATION
    emit(cfg, "simulate", payload)
    return code


# ---------------------------------------------------------------- parser

# kind -> its flag's argparse arguments; a str flag's metavar is its key
_FLAG_ARGS = {"num": {"type": float}, "int": {"type": int},
              "fmt": {"choices": FORMATS},
              "numlist": {"metavar": "KM[,KM...]",
                          "type": lambda s: [float(v) for v in s.split(",")]}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionrep",
        description="Rate model, optimizer, and event-level validator for "
                    "multiplexed trapped-ion repeater chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, groups: list[str]):
        """A subcommand with its groups' flags, group by group, in table order."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON config document")
        for group in groups:
            for field in _FIELDS:
                if field.group == group:
                    kwargs = (_FLAG_ARGS.get(field.kind)
                              or {"metavar": field.path.rpartition(".")[2].upper()})
                    p.add_argument("--" + field.flag.replace("_", "-"), **kwargs)
        return p

    add("rate", "evaluate one chain configuration", ["io", "hw", "layout"])
    p = add("classify", "walk the timing-regime decision tree", ["io", "hw", "layout"])
    p.add_argument("--l0-km", type=float, dest="l0_km",
                   help="classify a link of this length directly")
    add("optimize", "grid-search repeater count and time multiplexing",
        ["io", "hw", "layout", "bounds", "cons"])
    add("sweep", "optimize across a distance grid",
        ["io", "hw", "layout", "bounds", "cons", "sweep"])
    p = add("figure", "reproduce canned sweep families as CSV files",
            ["io", "hw", "bounds", "sweep", "out_dir"])
    p.add_argument("figure_ids", nargs="+", metavar="FIG",
                   choices=sorted(FIGURES) + ["all"],
                   help=f"{', '.join(sorted(FIGURES))}, or all; curves that share "
                        "M, hardware and constraints are swept once")
    p = add("simulate", "run the discrete-event protocol simulator",
            ["io", "hw", "layout", "sim"])
    p.add_argument("--validate", action="store_true",
                   help="compare against the analytic model; exit 4 on mismatch")
    p.add_argument("--trace", metavar="FILE", dest="trace_path",
                   help="write a step,node,event,count log of block 0")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    style = args.format or "text"  # until the config has been read
    try:
        cfg = load_config(args.config, args)
        style = cfg["output"]["format"]
        if args.command == "rate":
            return cmd_rate(cfg)
        if args.command == "classify":
            return cmd_classify(cfg, args.l0_km)
        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "figure":
            return cmd_figure(cfg, args.figure_ids)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.validate, args.trace_path)
        raise AssertionError(args.command)  # pragma: no cover
    except CliError as err:
        error = err
    except InfeasibleError as err:
        error = CliError(EXIT_INFEASIBLE, str(err), binding=list(err.binding))
    except StepCountError as err:
        error = CliError(EXIT_CONFIG,
                         f"config field {_step_fields(cfg, args.command, err)}: {err}")
    except ValueError as err:
        error = CliError(EXIT_CONFIG, str(err))
    _emit_error(error.style or style, args.command, error)
    return error.code


def _step_fields(cfg: dict, command: str, err: StepCountError) -> str:
    """The config fields behind a step count past the cap."""
    distance = ("layout.l_km" if command not in ("sweep", "figure") else
                "sweep.l_list_km" if cfg["sweep"]["l_list_km"] is not None else
                "sweep.l_max_km")
    return " or ".join("hardware.tau_us" if f == "tau" else distance for f in err.fields)


def _emit_error(style: str, command: str, err: CliError) -> None:
    kinds = {EXIT_CONFIG: "config", EXIT_INFEASIBLE: "infeasible",
             EXIT_VALIDATION: "validation"}
    if style == "json":
        doc = {"spec_version": SPEC_VERSION, "command": command,
               "error": {"kind": kinds.get(err.code, "error"),
                         "message": str(err)}}
        if err.binding is not None:
            doc["error"]["binding"] = err.binding
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stderr.write(f"ionrep {command}: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
