"""Command-line frontend: figure-data reproduction and validation suites.

Subcommands emit machine-readable tables (CSV or JSON) for the excitation
probability time series, the period-vs-temperature sweep, the coherence map,
the closed-form approximation check, and the oracle validation report.
Identical configuration yields byte-identical output: floats are printed
with 12 significant digits and all reductions run in fixed order.  A
``cmd_*`` handler writes nothing: it refuses first, then returns its exit
code and its output, the validation report or a table in row blocks.
``main`` alone writes that to stdout or ``--out`` alike, CSV a block at a
time (``coherence-map`` makes one per temperature), JSON too.  A stdout
closed early ends the run with exit 1 and nothing on stderr.

Limits: ``parse_config`` checks the document's form only, and the one size
rule here is the time grid this module allocates.  Every other rule is the
layer's that applies it, to the build it makes, which raises a
:class:`~thermaljcm.model.LimitError` before it builds (the exact solver's
leak, as it runs); ``main`` alone names the field that set it and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle, perturbation, validation
from .analysis import SAMPLE_LIMIT, approx_cos_sum, default_dt, period_vs_temperature_sweep
from .coherence import coherence_values, physical_population, project_values
from .model import (
    LimitError,
    ModelParams,
    rabi_period,
    t0_period,
    thermal_from_inv_beta,
)
from .oracle import FockTruncation
from .perturbation import TruncationPolicy

__all__ = ["main", "ConfigError", "RunConfig", "parse_config", "PRESETS", "build_preset"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NO_REVIVAL = 4


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration (canonical form)."""

    params: ModelParams
    inv_betas: list[float]
    t_start: float | None = None
    t_stop: float | None = None
    dt: float | None = None
    n_max: int = 250
    tail_tol: float | None = None
    adaptive: bool = False
    with_oracle: bool = False
    n_fock: int | None = None
    out_format: str = "csv"

    @property
    def trunc(self) -> TruncationPolicy:
        if self.adaptive:
            return TruncationPolicy.adaptive(self.params, self.tail_tol)
        return TruncationPolicy(n_max=self.n_max, tail_tol=self.tail_tol)

    def field(self, param: str, command: str | None = None) -> str:
        """The document field that set ``param`` (a :class:`LimitError`'s):
        the field itself when the document set it, else the one its default
        follows: alpha, the temperature for a hot automatic oracle cutoff, l
        for ``oracle-validate``'s own.  A time span follows g's periods unless
        ``command`` reads it from ``grid.t_stop`` and the document sets that."""
        if param == "dt" and self.dt is not None:
            return "grid.dt"
        if param == "n_fock" and command == "oracle-validate":
            return "model.l"
        if param == "n_fock" and self.n_fock:
            return "oracle.n_fock"
        if param == "inv_beta" or param == "n_fock" and thermal_from_inv_beta(
                max(self.inv_betas), self.params).theta:
            return "thermal.inv_beta"
        if param == "n_max" and not self.adaptive:
            return "truncation.n_max"
        if param == "t_max":  # period-sweep rows and the suite's times span g's periods
            return ("grid" if self.t_stop is not None
                    and command not in ("period-sweep", "oracle-validate") else "model.g")
        if param == "t":
            return "grid"
        return f"model.{param}" if param in ("l", "g") else "model.alpha"

    def canonical(self) -> dict:
        alpha = self.params.alpha
        return {
            "schema": SCHEMA_VERSION,
            "model": {
                "l": self.params.l,
                "g": self.params.g,
                "omega0": self.params.omega0,
                "omega": self.params.omega,
                "alpha": alpha.real if alpha.imag == 0 else [alpha.real, alpha.imag],
            },
            "thermal": {"inv_beta_grid": list(self.inv_betas)},
            "grid": {"t_start": self.t_start, "t_stop": self.t_stop, "dt": self.dt},
            "truncation": {"n_max": self.n_max, "tail_tol": self.tail_tol,
                           "adaptive": self.adaptive},
            "oracle": {"with_oracle": self.with_oracle, "n_fock": self.n_fock},
            "output": {"format": self.out_format},
        }


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_number(value) -> bool:
    """A JSON number that is a finite float: ``json.load`` also admits NaN,
    Infinity and integers too large for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _get_number(section: dict, path: str, key: str, default=None, required=False):
    if key not in section or section[key] is None:
        _expect(not required, f"{path}.{key}", "required field is missing")
        return default
    value = section[key]
    _expect(_is_number(value), f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _section(data: dict, name: str) -> dict:
    """An optional section; a false one (missing, null, {}, []) reads as {}."""
    section = data.get(name) or {}
    _expect(isinstance(section, dict), name, "must be an object")
    return section


def parse_config(data: dict) -> RunConfig:
    """Check a configuration document's form only; return its canonical form."""
    _expect(isinstance(data, dict), "config", "document must be a JSON object")
    schema = data.get("schema", SCHEMA_VERSION)
    _expect(schema == SCHEMA_VERSION, "schema", f"unsupported version {schema!r}")
    unknown = set(data) - {"schema", "model", "thermal", "grid", "truncation",
                           "oracle", "output"}
    _expect(not unknown, "config", f"unknown sections {sorted(unknown)}")

    model = data.get("model")
    _expect(isinstance(model, dict), "model", "section is required")
    l_raw = model.get("l")
    _expect(isinstance(l_raw, int) and _is_number(l_raw) and l_raw >= 1,
            "model.l", "must be an integer >= 1 within the float range")
    alpha_raw = model.get("alpha", 0.0)
    if isinstance(alpha_raw, (list, tuple)):
        _expect(len(alpha_raw) == 2 and all(_is_number(v) for v in alpha_raw),
                "model.alpha", "complex amplitude must be [re, im] of finite numbers")
        alpha = complex(alpha_raw[0], alpha_raw[1])
    else:
        _expect(_is_number(alpha_raw),
                "model.alpha", f"expected a finite number or [re, im], got {alpha_raw!r}")
        alpha = complex(alpha_raw)
    try:
        params = ModelParams(
            l=l_raw,
            g=_get_number(model, "model", "g", required=True),
            omega0=_get_number(model, "model", "omega0", required=True),
            omega=_get_number(model, "model", "omega", required=True),
            alpha=alpha,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    thermal = _section(data, "thermal")
    if "inv_beta_grid" in thermal:
        grid_raw = thermal["inv_beta_grid"]
        _expect(isinstance(grid_raw, (list, tuple)) and len(grid_raw) > 0,
                "thermal.inv_beta_grid", "must be a non-empty list")
        inv_betas = []
        for i, v in enumerate(grid_raw):
            _expect(_is_number(v) and v >= 0,
                    f"thermal.inv_beta_grid[{i}]", "temperatures must be finite numbers >= 0")
            inv_betas.append(float(v))
    else:
        ib = _get_number(thermal, "thermal", "inv_beta", default=0.0)
        _expect(ib >= 0, "thermal.inv_beta", "temperature must be >= 0")
        inv_betas = [ib]

    grid = _section(data, "grid")
    t_start = _get_number(grid, "grid", "t_start")
    t_stop = _get_number(grid, "grid", "t_stop")
    dt = _get_number(grid, "grid", "dt")
    if dt is not None:
        _expect(dt > 0, "grid.dt", "must be positive")
    if t_stop is not None and t_start is not None:
        _expect(t_stop >= t_start, "grid.t_stop", "must be >= t_start")

    truncation = _section(data, "truncation")
    n_max_raw = truncation.get("n_max", 250)
    _expect(isinstance(n_max_raw, int) and not isinstance(n_max_raw, bool) and n_max_raw >= 1,
            "truncation.n_max", "must be an integer >= 1")
    tail_tol = _get_number(truncation, "truncation", "tail_tol")
    _expect(tail_tol is None or tail_tol >= 0, "truncation.tail_tol", "must be >= 0")
    adaptive = truncation.get("adaptive", False)
    _expect(isinstance(adaptive, bool), "truncation.adaptive", "must be a boolean")

    oracle_cfg = _section(data, "oracle")
    with_oracle = oracle_cfg.get("with_oracle", False)
    _expect(isinstance(with_oracle, bool), "oracle.with_oracle", "must be a boolean")
    n_fock = oracle_cfg.get("n_fock")
    if n_fock is not None:
        _expect(isinstance(n_fock, int) and not isinstance(n_fock, bool) and n_fock >= 2,
                "oracle.n_fock", "must be an integer >= 2")

    output = _section(data, "output")
    out_format = output.get("format", "csv")
    _expect(out_format in ("csv", "json"), "output.format", "must be 'csv' or 'json'")

    return RunConfig(params=params, inv_betas=inv_betas, t_start=t_start,
                     t_stop=t_stop, dt=dt, n_max=n_max_raw, tail_tol=tail_tol,
                     adaptive=adaptive, with_oracle=with_oracle, n_fock=n_fock,
                     out_format=out_format)


# ---------------------------------------------------------------------------
# figure presets (caption parameter sets; g = omega0 = omega = 1 throughout)

_FIG1 = {"fig1a": (1, 6.0), "fig1b": (2, 7.0), "fig1c": (3, 7.0), "fig1d": (4, 8.0)}
_SWEEP_LS = {"fig3a": 1, "fig3b": 2, "fig3c": 3, "fig3d": 4}
_MAP_LS = {"fig4a": 1, "fig4b": 2, "fig4c": 3, "fig4d": 4}


def _base_model(l: int, alpha: float) -> dict:
    return {"l": l, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": alpha}


def build_preset(name: str) -> dict:
    """Configuration document of a named built-in figure preset."""
    if name in _FIG1:
        l, alpha = _FIG1[name]
        return {
            "schema": SCHEMA_VERSION,
            "model": _base_model(l, alpha),
            "thermal": {"inv_beta": 0.1},
            # no grid: the default, 1.35 revival periods at the default dt
            # the published truncation leaves a ~1e-7 tail at alpha = 8
            "truncation": {"n_max": 110, "tail_tol": 1e-6},
        }
    if name == "fig2":
        return {
            "schema": SCHEMA_VERSION,
            "model": _base_model(1, 0.2),
            "thermal": {"inv_beta": 0.1},
            "grid": {"t_start": 0.0, "t_stop": 100.0, "dt": 0.02},
            "truncation": {"n_max": 80},
        }
    if name in _SWEEP_LS:
        l = _SWEEP_LS[name]
        return {
            "schema": SCHEMA_VERSION,
            "model": _base_model(l, 12.0),
            "thermal": {"inv_beta_grid": [round(0.02 * i, 2) for i in range(9)]},
            "truncation": {"n_max": 250},
        }
    if name in _MAP_LS:
        l = _MAP_LS[name]
        params = ModelParams(**_base_model(l, 12.0))
        return {
            "schema": SCHEMA_VERSION,
            "model": _base_model(l, 12.0),
            "thermal": {"inv_beta_grid": [round(0.04 * i, 2) for i in range(5)]},
            # desk-scale grid density; pass --dt for the full-density map
            "grid": {"t_start": 0.0, "t_stop": 3.35 * t0_period(params),
                     "dt": rabi_period(params) / 20.0},
            "truncation": {"n_max": 250},
        }
    raise ConfigError(f"preset: unknown name {name!r}")


PRESETS = tuple(sorted([*_FIG1, "fig2", *_SWEEP_LS, *_MAP_LS]))


# ---------------------------------------------------------------------------
# output helpers

_CELL_FORMATS = {"f": "%.12g", "b": "%d", "i": "%d", "u": "%d"}

#: table rows turned into Python values and written as one string at a time:
#: the writer's memory does not grow with the table
_CSV_BLOCK_ROWS = 4096


def _json_at(value, depth: int) -> str:
    """``value`` as ``json.dump(..., indent=2)`` writes it ``depth`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _write_table(stream, columns: list[str], blocks, out_format: str) -> None:
    """Write a table given in row blocks, in order: each block one
    equal-length array or list per name.

    Each block is written ``_CSV_BLOCK_ROWS`` rows at a time before the next
    is asked for.  CSV writes the header once, then one %-format string per
    row: floats as %.12g (nan, inf and -0 included), booleans and integers as
    %d, anything else as %s.  JSON writes the bytes of ``json.dump({"columns":
    columns, "rows": rows}, indent=2, sort_keys=True)``, with the values of
    :func:`_coerce_json` encoded by json.
    """
    as_json = out_format == "json"
    stream.write(f'{{\n  "columns": {_json_at(columns, 1)},\n  "rows": [' if as_json
                 else ",".join(columns) + "\n")
    sep = ""
    for block in blocks:
        arrays = [np.asarray(c) for c in block]
        fmt = ",".join(_CELL_FORMATS.get(a.dtype.kind, "%s") for a in arrays) + "\n"
        for lo in range(0, len(arrays[0]), _CSV_BLOCK_ROWS):
            rows = zip(*(a[lo : lo + _CSV_BLOCK_ROWS].tolist() for a in arrays))
            if as_json:  # the rows' list without its brackets, then a comma
                rows = [[_coerce_json(v) for v in row] for row in rows]
                stream.write(sep + _json_at(rows, 1)[1:-4])
                sep = ","
            else:
                stream.write("".join([fmt % row for row in rows]))
        del block, arrays  # so the next block is made without this one
    if as_json:
        stream.write(("\n  ]" if sep else "]") + "\n}\n")


def _coerce_json(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return None if math.isnan(value) else float("%.12g" % value)
    return value


def _grid_samples(config: RunConfig) -> tuple[float, float, int]:
    """(t_start, dt, sample count) of the time grid, with the defaults filled
    in; the count is formed in floats and may not exceed ``SAMPLE_LIMIT``."""
    t0 = config.t_start if config.t_start is not None else 0.0
    try:  # the defaults scale with periods that g = 0 or alpha = 0 leave undefined
        t1 = config.t_stop if config.t_stop is not None else 1.35 * t0_period(config.params)
        dt = config.dt if config.dt is not None else default_dt(config.params)
    except ValueError as exc:
        raise ConfigError(f"grid: t_stop and dt have no default here, {exc}") from exc
    _expect(t1 >= t0, "grid.t_stop" if config.t_stop is not None else "grid.t_start",
            f"t_stop {t1:.6g} must be >= t_start {t0:.6g}")
    last = (t1 - t0) / dt + 0.5  # inf when t_stop - t_start is past the float range
    _expect(last < SAMPLE_LIMIT, "grid",
            f"t_start {t0:.6g}, t_stop {t1:.6g} and dt {dt:.6g} give {last:.3g} time "
            f"samples, more than the limit of {SAMPLE_LIMIT}")
    return t0, dt, max(math.floor(last), 0) + 1


def _time_grid(config: RunConfig) -> np.ndarray:
    t0, dt, n = _grid_samples(config)
    return t0 + dt * np.arange(n)


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code and its output, a table (names, row
# blocks of equal-length columns) or the validation report, and writes nothing

def cmd_pe_series(config: RunConfig) -> tuple[int, tuple]:
    """Excitation-probability time series with per-order contributions."""
    if len(config.inv_betas) != 1:
        raise ConfigError("thermal: pe-series expects a single inv_beta")
    params = config.params
    thermal = thermal_from_inv_beta(config.inv_betas[0], params)
    trunc = config.trunc
    t = _time_grid(config)
    if config.with_oracle:  # the exact table is sized before the series is built
        ftrunc = (FockTruncation(config.n_fock) if config.n_fock
                  else FockTruncation.auto(params, thermal))
        ftrunc.check(params, t)

    p1, p2 = perturbation.series_tables(t, params, trunc, coherence=False).pe_terms
    s2, c2 = thermal.sin_atom**2, thermal.cos_atom**2
    th = thermal.theta
    order0 = s2 * p1[0] + c2 * p2[0]
    order1 = th * (s2 * p1[1] + c2 * p2[1])
    order2 = 0.5 * th * th * (s2 * p1[2] + c2 * p2[2])
    pe = order0 + order1 + order2
    flags = physical_population(pe)

    columns = ["t", "pe_pert", "pe_order0", "pe_order1_contrib",
               "pe_order2_contrib", "physicality_flag"]
    cols = [t, pe, order0, order1, order2, flags]
    if config.with_oracle:
        cols.append(oracle.pe_curve(params, thermal, t, ftrunc))
        columns.append("pe_oracle")
    return EXIT_OK, (columns, [cols])


def cmd_period_sweep(config: RunConfig) -> tuple[int, tuple]:
    """Revival period against temperature, with the closed-form prior."""
    sweep = period_vs_temperature_sweep(config.params, config.inv_betas, config.trunc,
                                        dt=config.dt)
    periods = [math.nan if row.no_revival else row.period for row in sweep]
    flags = ["no-revival" if row.no_revival else "ok" if row.physical else "unstable"
             for row in sweep]
    n_missing = sum(row.no_revival for row in sweep)
    table = (["inv_beta", "extracted_period", "t0_prime", "tau1_quantum", "stability_flag"],
             [[[row.inv_beta for row in sweep], periods, [row.t0_prime for row in sweep],
               [row.quantum for row in sweep], flags]])
    return EXIT_NO_REVIVAL if n_missing == len(sweep) else EXIT_OK, table


def cmd_coherence_map(config: RunConfig) -> tuple[int, tuple]:
    """Relative entropy of coherence over the (t, 1/beta) grid, long format."""
    params = config.params
    t = _time_grid(config)
    rows = t.size * len(config.inv_betas)
    _expect(rows <= SAMPLE_LIMIT, "thermal.inv_beta_grid", f"{len(config.inv_betas)} temperatures "
            f"at {t.size} time samples give {rows} rows, more than the limit of {SAMPLE_LIMIT}")
    # the angles first: a temperature past their float range is refused
    # before the build
    thermals = [thermal_from_inv_beta(inv_beta, params) for inv_beta in config.inv_betas]
    tables = perturbation.series_tables(t, params, config.trunc)

    def block(inv_beta, thermal):  # one temperature's rows, made as main writes
        p00, z, projected = project_values(tables.pe(thermal), np.abs(tables.rho01(thermal)))
        return [t, np.full(t.size, inv_beta), coherence_values(p00, z), p00, z, projected]
    return EXIT_OK, (["t", "inv_beta", "coherence", "rho00", "abs_rho01",
                      "projection_applied"], map(block, config.inv_betas, thermals))


def cmd_approx_check(config: RunConfig) -> tuple[int, tuple]:
    """Closed-form approximation check: both sides of the cosine-sum identity."""
    params = config.params
    t = _time_grid(config)
    lhs, rhs = approx_cos_sum(params.alpha, params.l, params.g, t)
    return EXIT_OK, (["t", "lhs", "rhs", "abs_dev"], [[t, lhs, rhs, np.abs(lhs - rhs)]])


def cmd_oracle_validate(config: RunConfig | None) -> tuple[int, dict]:
    """Run the oracle-vs-series validation suite, at the document's model
    when one is given (its temperatures are not read); a JSON report."""
    report = validation.run_validation_suite(None if config is None else config.params)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION, report


# ---------------------------------------------------------------------------

#: the flags a subcommand may take besides --preset, --config and --out:
#: flag -> (the document field it sets, argparse keywords)
FLAGS = {
    "--format": ("output.format", {"choices": ("csv", "json")}),
    "--nmax": ("truncation.n_max", {"type": int, "help": "sets truncation.n_max, and "
                                    "truncation.adaptive false"}),
    "--dt": ("grid.dt", {"type": float}),
    "--with-oracle": ("oracle.with_oracle", {"action": "store_const", "const": True}),
}


def _set_flag_fields(doc, args) -> None:
    """Write each flag given into its document field.

    A missing or empty section becomes ``{}`` (``parse_config`` reads any
    false one as ``{}``); a malformed document or section is left as it is,
    for ``parse_config`` to reject.
    """
    if not isinstance(doc, dict):
        return
    for flag, (field, _) in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        section, key = field.split(".")
        if not doc.get(section):
            doc[section] = {}
        if isinstance(doc[section], dict):
            doc[section][key] = value
            if flag == "--nmax":
                doc[section]["adaptive"] = False


def _load_config(args) -> RunConfig | None:
    doc = None
    if args.preset:
        doc = build_preset(args.preset)
    if args.config:
        if doc is not None:
            raise ConfigError("config: pass either --preset or --config, not both")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {args.config} line {exc.lineno}: {exc.msg}") from exc
    if doc is None:
        return None
    _set_flag_fields(doc, args)
    return parse_config(doc)


#: subcommand name -> (handler, help text, the FLAGS it reads)
COMMANDS = {
    "pe-series": (cmd_pe_series, "excitation probability time series",
                  ("--format", "--nmax", "--dt", "--with-oracle")),
    "period-sweep": (cmd_period_sweep, "revival period vs temperature",
                     ("--format", "--nmax", "--dt")),
    "coherence-map": (cmd_coherence_map, "relative entropy of coherence over (t, 1/beta)",
                      ("--format", "--nmax", "--dt")),
    "oracle-validate": (cmd_oracle_validate, "series-vs-exact validation report (JSON)", ()),
    "approx-check": (cmd_approx_check, "closed-form cosine-sum approximation table",
                     ("--format", "--dt")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermaljcm",
        description="Finite-temperature multiphoton Jaynes-Cummings dynamics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--preset", choices=PRESETS, help="named figure preset")
        sub.add_argument("--config", help="path to a JSON configuration document")
        sub.add_argument("--out", help="output path (default: stdout)")
        for flag in flags:
            field, keywords = FLAGS[flag]
            sub.add_argument(flag, **{"help": f"sets {field}", **keywords})
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command][0]
    try:
        config = _load_config(args)
        if config is None and args.command != "oracle-validate":
            raise ConfigError("config: pass --preset or --config")
        # --out is opened for appending before any work: an unwritable path
        # exits 2 at once, a handler's refusal or traceback leaves an earlier
        # result as it was, a new path is created empty, and a row block that
        # raises as it is made leaves the blocks before it, like a failed write
        try:
            out = (open(args.out, "a", encoding="utf-8", newline="") if args.out
                   else contextlib.nullcontext(sys.stdout))
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: {exc.strerror}") from exc
        with out as stream:
            code, output = handler(config)
            if args.out:  # only the output of a handler that returned replaces it
                stream.truncate(0)
            if isinstance(output, dict):  # the validation report
                json.dump(output, stream, indent=2, sort_keys=True)
                stream.write("\n")
            else:
                _write_table(stream, *output, config.out_format)
            stream.flush()
        return code
    except BrokenPipeError:  # stdout closed early, as by ``| head``: end quietly
        # the interpreter's last flush of stdout would raise it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LimitError as exc:  # a layer's limit, named by the field that set it
        print(f"error: {config.field(exc.param, args.command)}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
