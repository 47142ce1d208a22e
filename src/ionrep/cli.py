"""Command-line front end.

One JSON config document drives every subcommand; flags override file values,
which override baseline defaults. A subcommand has a flag only for a config
field it reads or checks (_FIELDS names them per field); the file may set any
field. Each config section reaches the library by field name; times cross
this interface in microseconds, and _seconds is the one place they become the
library's seconds. All numeric output passes through a
single 9-significant-digit formatter so text, JSON, and CSV renderings of the
same result carry identical values, and a fixed seed reproduces identical
bytes. NaN is spelled "nan" in every format (JSON has no NaN literal).
A CSV table is the bytes csv.writer writes over that formatter, which
quotes a field only where it holds a comma, quote or newline; one
str.format call renders a table that has no such field and no bool.

Each call builds the flags of its own subcommand only, and loads only the
modules it runs: classify, a help page or a config error needs only the
model, which imports no numpy; cmd_rate imports the rates once it has
built its inputs; optimize, sweep and figure import the optimizer inside
the functions that call it, sweep and figure the figure table, and
simulate the simulator inside cmd_simulate; csv loads only for a CSV
table with a bool or a field to quote. FIGURES, the figure table, resolves
on first access like the package's names.

Exit codes: 0 success, 2 config error, 3 infeasible, 4 validation failure.
"""
from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
import threading
from typing import TYPE_CHECKING, NamedTuple, Optional

from .model import (ChainLayout, Constraints, HardwareProfile, InfeasibleError,
                    StepCountError, _check, classification_path, heralding_time)

if TYPE_CHECKING:
    from .optimize import SearchBounds
    from .rates import RateReport

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
    commands: str      # the subcommands that read or check it, which take its flag
    dest: str = ""     # the flag's dest, when it is not the path's key

    @property
    def flag(self) -> str:
        return self.dest or self.path.rpartition(".")[2]


# Every config field once, in --help order, with the subcommands that read or
# check it and so take its flag; a config file may set it for any subcommand.
_ALL = "rate classify optimize sweep figure simulate"
_FIELDS = (
    _Field("output.format", "text", "fmt", False, _ALL),
    _Field("output.path", None, "str", True, _ALL, dest="output"),
    _Field("hardware.eta_c", 0.3, "num", False, _ALL),
    _Field("hardware.eta_d", 0.8, "num", False, _ALL),
    _Field("hardware.alpha_db_per_km", 0.2, "num", False, _ALL),
    _Field("hardware.refractive_index", 1.47, "num", False, _ALL),
    _Field("hardware.tau_us", 1.0, "num", False, _ALL),
    _Field("hardware.tau_g_us", 1.0, "num", False, _ALL),
    _Field("hardware.tau_o_us", 50.0, "num", False, _ALL),
    _Field("hardware.tau_m_us", 6e7, "num", False, _ALL),
    _Field("hardware.f0", 0.9999, "num", False, _ALL),
    _Field("hardware.eps_g", 1e-4, "num", False, _ALL),
    _Field("hardware.memory_margin", 10.0, "num", False, _ALL),
    _Field("layout.l_km", 150.0, "num", False, "rate classify optimize simulate"),
    _Field("layout.n", None, "int", True, "rate classify simulate"),
    _Field("layout.spatial_mux", 10, "int", False, "rate classify optimize sweep simulate"),
    _Field("layout.time_mux", None, "int", True, "rate classify simulate"),
    _Field("bounds.n_max", 600, "int", False, "optimize sweep figure"),
    _Field("bounds.m_max", 2000, "int", False, "optimize sweep figure"),
    _Field("constraints.n_o_max", None, "int", True, "optimize sweep"),
    _Field("constraints.n_m_max", None, "int", True, "optimize sweep"),
    _Field("constraints.fixed_l0_km", None, "num", True, "optimize sweep"),
    _Field("constraints.fixed_n", None, "int", True, "optimize sweep"),
    _Field("constraints.tau_min_us", None, "num", True, "optimize sweep"),
    _Field("sweep.l_min_km", 10.0, "num", False, "sweep figure"),
    _Field("sweep.l_max_km", 500.0, "num", False, "sweep figure"),
    _Field("sweep.l_step_km", 10.0, "num", False, "sweep figure"),
    _Field("sweep.l_list_km", None, "numlist", True, "sweep figure"),
    _Field("output.dir", ".", "str", False, "figure", dest="out_dir"),
    _Field("sim.num_blocks", 100000, "int", False, "simulate"),
    _Field("sim.n_comm_ions", 0, "int", False, "simulate"),
    _Field("sim.n_mem_ions", 0, "int", False, "simulate"),
    _Field("sim.p_override", None, "num", True, "simulate"),
    _Field("seed", 0, "int", False, "simulate"),
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
    cfg = {key: dict(value) if isinstance(value, dict) else value  # values are scalars
           for key, value in DEFAULTS.items()}
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


def _seconds(section: dict) -> dict:
    """A section under the library's names: each *_us field in seconds, by one
    correctly rounded division (50 us is the library's 5e-05 s)."""
    out = {}
    for key, value in section.items():
        if key.endswith("_us"):
            key, value = key[:-3], None if value is None else value / 1e6
        out[key] = value
    return out


def make_hardware(cfg: dict) -> HardwareProfile:
    try:  # updated checks the optical, timing and noise groups in that order
        return HardwareProfile().updated(**_seconds(cfg["hardware"]))
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid hardware config: {err}")


def make_layout(cfg: dict, need_m: bool = True) -> ChainLayout:
    lay = cfg["layout"]
    if lay["n"] is None:
        raise CliError(EXIT_CONFIG, "config field layout.n is required here")
    if need_m and lay["time_mux"] is None:
        raise CliError(EXIT_CONFIG, "config field layout.time_mux is required here")
    try:
        return ChainLayout(total_distance_km=lay["l_km"],
                           n_repeaters=lay["n"],
                           spatial_mux=lay["spatial_mux"],
                           time_mux=lay["time_mux"] if lay["time_mux"] is not None else 1)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid layout config: {err}")


def make_bounds(cfg: dict) -> SearchBounds:
    from .optimize import SearchBounds
    # no prefix: SearchBounds' messages already name bounds.n_max and bounds.m_max
    return SearchBounds(**cfg["bounds"])


def make_constraints(cfg: dict) -> Constraints:
    try:
        return Constraints(**_seconds(cfg["constraints"]))
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid constraints config: {err}")


def make_l_grid(cfg: dict) -> list[float]:
    from .optimize import distance_grid
    sw = cfg["sweep"]
    if sw["l_list_km"] is not None:
        grid = [float(v) for v in sw["l_list_km"]]
        if not grid or not all(a < b for a, b in zip([0.0] + grid, grid)):
            raise CliError(EXIT_CONFIG, "config field sweep.l_list_km must be positive "
                                        f"and strictly increasing, got {sw['l_list_km']}")
        return grid
    try:
        return distance_grid(sw["l_min_km"], sw["l_max_km"], sw["l_step_km"])
    except ValueError as err:  # each message starts with the field at fault
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


def _leaves(doc, prefix: str = "", under_a_list: bool = False):
    """(label, value, under_a_list) per scalar of a payload, in document order;
    a list's scalars take the list's label, its dicts add their index to it."""
    in_list = isinstance(doc, list)
    for key, value in enumerate(doc) if in_list else doc.items():
        if isinstance(value, (dict, list)):
            yield from _leaves(value, f"{prefix}{key}.",
                               under_a_list or isinstance(value, list))
        else:
            yield prefix[:-1] if in_list else f"{prefix}{key}", value, under_a_list


# the cell types whose format(v, "") is str(v), as fmt_value prints them;
# a numpy float32 formats as a Python float, so other types take !s
_PLAIN_TYPES = (str, int, type(None))


@functools.lru_cache(maxsize=64)
def _row_template(types: tuple) -> Optional[str]:
    """A row's str.format template, by its cells' types, that prints what
    fmt_value prints; None where a cell is a bool, spelled true or false."""
    if bool in types:
        return None
    return ",".join("{:.9g}" if issubclass(t, float) else "{}" if t in _PLAIN_TYPES
                    else "{!s}" for t in types)


def _csv_text(header: tuple, rows: list[tuple]) -> str:
    """The header and each row, its values in header order, in the bytes
    csv.writer writes over fmt_value. One str.format call renders the table;
    csv.writer renders it instead where a cell is a bool or needs quoting,
    which shows as a comma or newline that no template wrote, a quote or
    CR, or an empty line (a one-column row whose cell is empty)."""
    table = [header, *rows]
    templates = [_row_template(tuple(map(type, row))) for row in table]
    if None not in templates:
        text = ("\n".join(templates) + "\n").format(*itertools.chain.from_iterable(table))
        if (text.count(",") == sum(map(len, table)) - len(table)
                and text.count("\n") == len(table) and '"' not in text
                and "\r" not in text and "\n\n" not in text and text[0] != "\n"):
            return text
    import csv
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(map(fmt_value, row) for row in table)
    return out.getvalue()


def _write(path: str, text: str, field: str) -> None:
    """Write a file as UTF-8; failing is a config error that names the field."""
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode())
    except OSError as err:
        raise CliError(EXIT_CONFIG, f"cannot write {field}: {err}")


def emit(cfg: dict, command: str, payload: dict,
         csv_table: Optional[tuple[tuple, list[tuple]]] = None) -> None:
    """Render payload in the configured format to stdout or output.path."""
    style = cfg["output"]["format"]
    if style == "json":
        doc = {"spec_version": SPEC_VERSION, "command": command}
        doc.update(_json_safe(payload))
        text = json.dumps(doc, indent=2) + "\n"
    elif style == "csv":
        if csv_table is None:  # one row; lists have no tabular shape
            header, row = zip(*((label, v) for label, v, listed in _leaves(payload)
                                if not listed))
            csv_table = (header, [row])
        text = _csv_text(*csv_table)
    else:
        lines = (f"{label}: {fmt_value(v)}" for label, v, _ in _leaves(payload))
        text = "\n".join(lines) + "\n"
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

def cmd_rate(cfg: dict, args: argparse.Namespace) -> int:
    layout, hw = make_layout(cfg), make_hardware(cfg)
    from .rates import evaluate_rate
    report = evaluate_rate(layout, hw)
    emit(cfg, "rate", {"result": report_doc(report)})
    return EXIT_OK


def cmd_classify(cfg: dict, args: argparse.Namespace) -> int:
    hw = make_hardware(cfg)
    l0_km, blame = args.l0_km, ""
    if l0_km is None:
        layout = make_layout(cfg, need_m=False)
        l0_km, blame = layout.link_length_km, "config field layout.l_km: "
    _check(0 < l0_km < math.inf, "l0_km", "positive and finite", l0_km)
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


def cmd_optimize(cfg: dict, args: argparse.Namespace) -> int:
    from .optimize import optimize_rate
    hw = make_hardware(cfg)
    constraints = make_constraints(cfg)  # a bad constraint is reported before a bad bound
    res = optimize_rate(cfg["layout"]["l_km"], cfg["layout"]["spatial_mux"], hw,
                        bounds=make_bounds(cfg), constraints=constraints)
    emit(cfg, "optimize", {"result": {
        "n_opt": res.n_opt,
        "m_opt": res.m_opt,
        "l0_km": cfg["layout"]["l_km"] / (res.n_opt + 1),
        "evaluations": res.evaluations,
        "boundary_hit_n": res.boundary_hit_n,
        "boundary_hit_m": res.boundary_hit_m,
        "report": report_doc(res.report),
    }})
    return EXIT_OK


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    from .figures import CSV_COLUMNS, row_values
    from .optimize import sweep_distance
    hw = make_hardware(cfg)
    grid = make_l_grid(cfg)
    constraints = make_constraints(cfg)  # a bad constraint is reported before a bad bound
    raw = sweep_distance(grid, cfg["layout"]["spatial_mux"], hw,
                         bounds=make_bounds(cfg), constraints=constraints)
    header = CSV_COLUMNS + ("infeasible_reason",)
    rows = [row_values(r, "noisy_rate") + (r.infeasible_reason or "",) for r in raw]
    emit(cfg, "sweep", {"rows": [dict(zip(header, row)) for row in rows]},
         csv_table=(header, rows))
    return EXIT_OK


# Rows (distances x distinct variants) that figure calls hold: ~850 B a row
# under tracemalloc (Python 3.11.7, numpy 2.4.6), ~1.7 MB when full, which
# fits `figure all` on the default 50-distance grid (1,150 rows).
SOLVED_ROWS = 2048
_held: dict = {}  # (grid, bounds, variant set) -> rows per variant, least recently used first
_held_lock = threading.Lock()


def _figure_sweeps(grid: list[float], variants: list[tuple], bounds: SearchBounds) -> dict:
    """Each variant's rows, from one optimize.sweep_variants call. A process
    that repeats a figure call (fig3-fig6 are fig2's sweeps, read for other
    columns) solves it once: the rows are held under the grid, bounds and
    variant set, within SOLVED_ROWS rows, dropping the least recently used
    first. A call that raises, or is over the bound, holds nothing. The
    model is taken to be fixed for the life of the process."""
    from .optimize import sweep_variants
    distinct = frozenset(variants)
    key = (tuple(grid), bounds, distinct)
    with _held_lock:
        if key in _held:
            _held[key] = _held.pop(key)  # now the most recently used
            return _held[key]
    rows = dict(zip(variants, sweep_variants(grid, variants, bounds)))
    if len(grid) * len(distinct) <= SOLVED_ROWS:
        with _held_lock:
            _held.pop(key, None)  # another thread may have solved it meanwhile
            _held[key] = rows
            excess = sum(len(g) * len(v) for g, _, v in _held) - SOLVED_ROWS
            while excess > 0:
                g, _, v = oldest = next(iter(_held))
                excess -= len(g) * len(v)
                del _held[oldest]
    return rows


def cmd_figure(cfg: dict, args: argparse.Namespace) -> int:
    from .figures import CSV_COLUMNS, FIGURES, curve_rows, curve_variant
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
    ids = list(dict.fromkeys(i for arg in args.figure_ids
                             for i in (sorted(FIGURES) if arg == "all" else [arg])))
    curves = [(fig_id, curve) for fig_id in ids for curve in FIGURES[fig_id][1]]
    variants = [curve_variant(curve, hw) for _, curve in curves]
    try:
        sweeps = _figure_sweeps(grid, variants, bounds)
    except StepCountError as err:
        err.curve = curves[err.variant][1]  # its overrides may have set the clock
        raise
    files = []
    for (fig_id, curve), variant in zip(curves, variants):
        path = os.path.join(out_dir, f"{fig_id}_{curve.label}.csv")
        _write(path, _csv_text(CSV_COLUMNS, curve_rows(curve, sweeps[variant])),
               "output.dir")
        files.append(path)
    emit(cfg, "figure", {"figure": " ".join(ids),
                         "description": "; ".join(FIGURES[i][0] for i in ids),
                         "files": files})
    return EXIT_OK


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    from .mcsim import SimConfig, run_protocol_sim, validate_stats
    from .rates import evaluate_rate
    layout = make_layout(cfg)
    hw = make_hardware(cfg)
    try:
        config = SimConfig.from_profile(layout, hw, **cfg["sim"], seed=cfg["seed"],
                                        trace=args.trace_path is not None)
    except StepCountError:
        raise  # main names the fields behind the step count
    except ValueError as err:
        raise CliError(EXIT_CONFIG, f"invalid sim config: {err}")
    stats = run_protocol_sim(config)
    payload: dict = {"result": {
        "waits_for_herald": config.waits_for_herald, "j_steps": config.j_steps,
        "k_steps": config.k_steps, "p": config.p,
        **{k: v for k, v in vars(stats).items() if k != "trace"}}}
    if args.trace_path is not None:
        _write(args.trace_path, "\n".join(stats.trace) + "\n", "--trace")
        payload["trace_path"] = args.trace_path
    code = EXIT_OK
    if args.validate:
        verdict = validate_stats(config, evaluate_rate(layout, hw), stats)
        payload["validation"] = dict(vars(verdict))
        if not verdict.passed:
            code = EXIT_VALIDATION
    emit(cfg, "simulate", payload)
    return code


# ---------------------------------------------------------------- parser

def _km_list(text: str) -> list[float]:
    """--l-list-km's value: comma-separated kilometres."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected KM[,KM...], got {text!r}") from None


# kind -> its flag's argparse arguments; a str flag's metavar is its key
_FLAG_ARGS = {"num": {"type": float}, "int": {"type": int},
              "fmt": {"choices": FORMATS},
              "numlist": {"metavar": "KM[,KM...]", "type": _km_list}}


# name -> (run, help line)
_COMMANDS = {
    "rate": (cmd_rate, "evaluate one chain configuration"),
    "classify": (cmd_classify, "walk the timing-regime decision tree"),
    "optimize": (cmd_optimize, "grid-search repeater count and time multiplexing"),
    "sweep": (cmd_sweep, "optimize across a distance grid"),
    "figure": (cmd_figure, "reproduce canned sweep families as CSV files"),
    "simulate": (cmd_simulate, "run the discrete-event protocol simulator"),
}


@functools.cache  # one parser a command: parse_args keeps no state between calls
def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser of a call that names command, or no known command: every
    subcommand with its help line, and flags, -h included, on command's
    subparser only; argparse never runs the others."""
    parser = argparse.ArgumentParser(
        prog="ionrep",
        description="Rate model, optimizer, and event-level validator for "
                    "multiplexed trapped-ion repeater chains.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == command,
                           allow_abbrev=False)
        p.set_defaults(run=run)
        if name == command:
            _add_flags(p, name)
    return parser


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config document")
    for field in _FIELDS:
        if command in field.commands.split():
            kwargs = (_FLAG_ARGS.get(field.kind)
                      or {"metavar": field.path.rpartition(".")[2].upper()})
            p.add_argument("--" + field.flag.replace("_", "-"), **kwargs)
    if command == "classify":
        p.add_argument("--l0-km", type=float, dest="l0_km",
                       help="classify a link of this length directly")
    elif command == "figure":
        from .figures import FIGURES
        p.add_argument("figure_ids", nargs="+", metavar="FIG",
                       choices=sorted(FIGURES) + ["all"],
                       help=f"{', '.join(sorted(FIGURES))}, or all; curves that share "
                            "M, hardware and constraints are swept once")
    elif command == "simulate":
        p.add_argument("--validate", action="store_true",
                       help="compare against the analytic model; exit 4 on mismatch")
        p.add_argument("--trace", metavar="FILE", dest="trace_path",
                       help="write a step,node,event,count log of block 0")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse runs the subcommand its first positional names, and the top
    # level takes no option with a value, so that is the first command token
    args = build_parser(next((a for a in argv if a in _COMMANDS), None)).parse_args(argv)
    style = args.format or "text"  # until the config has been read
    try:
        cfg = load_config(args.config, args)
        style = cfg["output"]["format"]
        return args.run(cfg, args)
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
    """The config fields behind a step count past the cap; a figure curve's
    own clock override stands in for hardware.tau_us. cmd_figure sets the
    error's curve to the first curve of the row solve that failed."""
    distance = ("layout.l_km" if command not in ("sweep", "figure") else
                "sweep.l_list_km" if cfg["sweep"]["l_list_km"] is not None else
                "sweep.l_max_km")
    curve = getattr(err, "curve", None)
    tau = ("hardware.tau_us" if curve is None or "tau" not in curve.hw_overrides else
           f"curve {curve.label}'s own tau_us={curve.hw_overrides['tau'] / US:g}")
    return " or ".join(tau if f == "tau" else distance for f in err.fields)


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


def __getattr__(name: str):
    """FIGURES loads the figure table on first access (PEP 562)."""
    if name != "FIGURES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .figures import FIGURES
    globals()[name] = FIGURES
    return FIGURES


if __name__ == "__main__":
    sys.exit(main())
