"""JSON run configuration: loading, validation, defaults.

Configs are plain nested dicts.  `_KEYS` holds one row per dotted path
(two where the default depends on the reader): its default, its value
check, and the commands, equations, schemes, model families or study
kinds that read it.  Validation names the dotted path of every unknown
key, bad value or key the run does not read, and fills a default exactly
where the run reads the key, so a resolved config validates to itself.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    """Bad configuration file or contents."""


# Each profile and the profile keys it reads.
_PROFILES = {"zero": set(), "uniform": {"value"},
             "gaussian": {"amplitude", "width", "center"},
             "plane-wave": {"amplitude", "mode"}, "sech-soliton": {"eta", "center"},
             "file": {"path"}}
_ANY_PROFILE = set().union(*_PROFILES.values())

# Each equation and the model family it needs (None: it needs none).
_EQUATIONS = {"xxz-lattice": "xxz", "hubbard-lattice": "hubbard",
              "pretransform": "xxz", "precursor": "xxz",
              "gp": None, "coupled-gp": "hubbard"}
_SPLIT_STEP = {"gp", "coupled-gp"}
_LATTICE = {"xxz-lattice", "hubbard-lattice"}
_CONTINUUM = set(_EQUATIONS) - _LATTICE

MIN_CLI_SITES = 5


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer literal too long to read
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# ------------------------------------------------------------ value checks

def _as_float(path: str, value) -> float:
    """A JSON number as a float; no run can use an integer beyond float range."""
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ConfigError(f"{path} is too large for a float: {digits} digits") from None


def _number(path: str, value, low=None, strict=False) -> None:
    """Require a finite JSON number, optionally above low (strictly or not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(_as_float(path, value)):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(
            f"{path} must be {'above' if strict else 'at least'} {low}, got {value!r}")


def _integer(path: str, value, low=None, high=None) -> None:
    if isinstance(value, bool) or not isinstance(value, int) \
            or (low is not None and value < low) or (high is not None and value > high):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ConfigError(f"{path} must be an integer{bound}, got {value!r}")
    _as_float(path, value)


def _power_of_two(path: str, value, low: int) -> None:
    if type(value) is not int or value < low or value & (value - 1):
        raise ConfigError(f"{path} must be a power of two >= {low}, got {value!r}")
    _as_float(path, value)


def _numbers(path: str, value) -> None:
    """A number, or a list of numbers (per-site values)."""
    if not isinstance(value, list):
        _number(path, value)
        return
    for i, v in enumerate(value):
        _number(f"{path}[{i}]", v)


def _listed(value) -> list:
    """A per-site value as a list: a single number becomes a list of one."""
    return value if isinstance(value, list) else [value]


def _one_of(*allowed):
    def check(path: str, value) -> None:
        if not isinstance(value, str) or value not in allowed:
            raise ConfigError(
                f"{path} must be one of {', '.join(allowed)}; {value!r} is not supported")
    return check


def _points(entry):
    """A list of at least two different points, each checked by entry."""
    def check(path: str, value) -> None:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        for i, v in enumerate(value):
            entry(f"{path}[{i}]", v)
        if len(set(value)) < 2:
            raise ConfigError(
                f"{path} must hold at least two different points, got {value!r}")
    return check


def _site(path: str, value) -> None:
    if value is not None:
        _integer(path, value)


def _string(path: str, value) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")


_positive = partial(_number, low=0, strict=True)
_at_least_zero = partial(_number, low=0)


def _nonzero(path: str, value) -> None:
    _number(path, value)
    if value == 0:
        raise ConfigError(f"{path} must not be 0, got {value!r}")


# ------------------------------------------------------------------ table

_ABSENT = object()  # the default of a key that has none


class _Key(NamedTuple):
    """One row of the config table."""

    path: str
    default: object  # a value; a callable takes the config resolved so far
    check: Callable = lambda path, value: None  # raises ConfigError on a bad value
    readers: frozenset = None  # None: every run that reads the section, if any


def _profile_keys(section: str, profiles, default=_ABSENT):
    """The rows of a profile section that takes the given profiles."""
    checks = {"mode": _integer, "path": _string, "width": _positive, "eta": _nonzero}
    return [_Key(f"{section}.profile", default, _one_of(*profiles)),
            *(_Key(f"{section}.{key}", _ABSENT, checks.get(key, _number))
              for key in sorted(_ANY_PROFILE))]


_XXZ, _HUBBARD = frozenset({"xxz"}), frozenset({"hubbard"})
_CONTINUUM_LIMIT, _TRUNCATION = frozenset({"continuum-limit"}), frozenset({"truncation"})
_scheme = _one_of("rk4", "rk45", "strang")

# Sections come before the keys in them, and a derived default after the
# keys it is derived from: defaults are filled in table order.
_KEYS = (
    _Key("model", {}, readers=frozenset({"study"} | set(_EQUATIONS) - {"gp"})),
    _Key("model.family", "xxz", _one_of("xxz", "hubbard")),
    _Key("model.N", 256, _integer),
    _Key("model.hbar", 1.0, _positive,
         frozenset(_LATTICE | {"pretransform", "coupled-gp", "continuum-limit"})),
    _Key("model.J0", 1.0, _number, _XXZ),
    _Key("model.J1", 0.0, _number, _XXZ),
    _Key("model.R0", 1.0, _number, _XXZ),
    _Key("model.R1", 0.0, _number, _XXZ),
    _Key("model.s", 1.0, _positive, _XXZ),
    _Key("model.x_xi", 0.0, _number, _XXZ),
    _Key("model.h", _ABSENT, _numbers, frozenset({"xxz-lattice"})),
    _Key("model.t", 1.0, _number, _HUBBARD),
    _Key("model.U", 1.0, _numbers, _HUBBARD),
    _Key("equation", "xxz-lattice", _one_of(*_EQUATIONS), frozenset({"simulate"})),
    _Key("grid", {}, readers=frozenset({"study"} | _CONTINUUM)),
    _Key("grid.L", 8.0 * math.pi, _positive),
    _Key("grid.M", 512, partial(_power_of_two, low=8), frozenset(_CONTINUUM)),
    _Key("integrator", {}, readers=frozenset({"simulate", "study"})),
    _Key("integrator.dt", 1e-3, _positive),
    _Key("integrator.t_end", 1.0, _at_least_zero, frozenset({"simulate"})),
    _Key("integrator.scheme", "strang", _scheme, frozenset(_SPLIT_STEP)),
    _Key("integrator.scheme", "rk4", _scheme, frozenset(_EQUATIONS) - _SPLIT_STEP),
    _Key("integrator.tolerance", 1e-8, _positive, frozenset({"rk45"})),
    _Key("integrator.symbol_mode", "naive", _one_of("naive", "wick"),
         frozenset({"xxz-lattice"})),
    _Key("integrator.snapshot_every", 0, partial(_integer, low=0), frozenset({"simulate"})),
    _Key("initial", {"profile": "zero"}, readers=frozenset({"simulate"})),
    *_profile_keys("initial", _PROFILES),
    _Key("initial2", lambda out: dict(out["initial"]),
         readers=frozenset({"hubbard-lattice", "coupled-gp"})),
    *_profile_keys("initial2", _PROFILES),
    _Key("potential", {"profile": "zero"},
         readers=frozenset({"pretransform", "precursor", "gp"})),
    *_profile_keys("potential", ("zero", "uniform", "gaussian")),
    _Key("spacing", 1.0, _positive, frozenset({"pretransform"})),
    _Key("dispersive_scale", 1.0, _number, frozenset({"precursor"})),
    _Key("study", {}, readers=frozenset({"study"})),
    _Key("study.kind", _ABSENT, _one_of("continuum-limit", "truncation")),
    _Key("study.L", lambda out: out["grid"]["L"], _positive),
    _Key("study.dt", lambda out: out["integrator"]["dt"], _positive),
    *_profile_keys("study", [p for p in _PROFILES if p != "file"], "gaussian"),
    _Key("study.threads", _ABSENT, partial(_integer, low=1, high=1)),
    _Key("study.sizes", [32, 64, 128, 256], _points(partial(_power_of_two, low=8)),
         _CONTINUUM_LIMIT),
    _Key("study.grid_refine", 4, partial(_power_of_two, low=1), _CONTINUUM_LIMIT),
    _Key("study.s_values", [40.0, 126.0, 400.0, 1265.0, 4000.0], _points(_positive),
         _TRUNCATION),
    _Key("study.M", 256, partial(_power_of_two, low=8), _TRUNCATION),
    _Key("study.t_end", 0.5, _at_least_zero, _CONTINUUM_LIMIT),
    _Key("study.t_end", 1.0, _at_least_zero, _TRUNCATION),
    _Key("study.slope_min", 1.7, _number, _CONTINUUM_LIMIT),
    _Key("study.slope_min", 0.7, _number, _TRUNCATION),
    _Key("study.slope_max", 2.3, _number, _CONTINUUM_LIMIT),
    _Key("study.slope_max", 1.3, _number, _TRUNCATION),
    _Key("verify", {}, readers=frozenset({"verify-derivation"})),
    _Key("verify.N", 7, partial(_integer, low=MIN_CLI_SITES)),
    _Key("verify.site", None, _site),
    _Key("verify.jw_sites", 4, partial(_integer, low=2, high=6)),
    _Key("out", _ABSENT, _string),
)


_ROWS = {}  # the rows of each path
_DEFAULTS = {}  # the (key, row) of each section's rows with a default; key "": the section
for _row in _KEYS:
    _ROWS[_row.path] = _ROWS.get(_row.path, ()) + (_row,)
    _section, _, _key = _row.path.partition(".")
    if _row.default is not _ABSENT:
        _DEFAULTS[_section] = _DEFAULTS.get(_section, []) + [(_key, _row)]
_OBJECTS = {path.partition(".")[0] for path in _ROWS if "." in path}


def _row_read(path: str, run):
    """The first row of path that the run reads, or None."""
    for row in _ROWS[path]:
        if row.readers is None or not row.readers.isdisjoint(run):
            return row
    return None


def _get(cfg: dict, path: str, run):
    """The value given at path, else its default on this run (None if it has none)."""
    section, _, key = path.partition(".")
    tree = cfg.get(section, {}) if key else cfg
    if (key or section) in tree:
        return tree[key or section]
    row = _row_read(path, run)
    return None if row is None or row.default is _ABSENT else row.default


def _given(cfg: dict) -> list:
    """Each given (path, value); unknown keys are rejected."""
    given = []
    for section, value in cfg.items():
        if section not in _ROWS:
            raise ConfigError(f"unknown config key {section}")
        given.append((section, value))
        if section not in _OBJECTS:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{section} must be an object, got {value!r}")
        for key, sub in value.items():
            path = f"{section}.{key}"
            if path not in _ROWS:
                raise ConfigError(f"unknown config key {path}")
            given.append((path, sub))
    return given


def _run(cfg: dict, command: str):
    """The names a reader of this run may list, and how messages name the run."""
    family = _get(cfg, "model.family", ())
    if command == "simulate":
        eq = _get(cfg, "equation", (command,))
        scheme = _get(cfg, "integrator.scheme", (eq,))
        return ((command, eq, scheme, family),
                f"equation {eq} with scheme {scheme} on model family {family}")
    if command == "study":
        kind = cfg.get("study", {}).get("kind")
        return ((command, family, kind),
                f"the study command with kind {kind} on model family {family}")
    return (command,), f"the {command} command"


def _check_rules(cfg: dict, command: str, run) -> None:
    """The rules that tie keys together."""
    if command == "study":
        if run[2] is None:
            raise ConfigError(
                "study.kind is required: a study run needs a study section naming its kind")
        if run[1] != "xxz":
            raise ConfigError(f"model.family must be xxz for a study, got {run[1]!r}")
    elif (n := _get(cfg, "model.N", run)) < MIN_CLI_SITES:
        raise ConfigError(f"model.N must be at least {MIN_CLI_SITES}, got {n}")
    if command == "simulate":
        _, eq, scheme, family = run
        if (scheme == "strang") != (eq in _SPLIT_STEP) or (
                scheme == "rk45" and eq not in _LATTICE):
            raise ConfigError(
                f"integrator.scheme {scheme!r} does not apply to equation {eq}: "
                "gp and coupled-gp take strang, pretransform and precursor rk4, "
                "the lattice equations rk4 or rk45")
        if _EQUATIONS[eq] not in (None, family):
            raise ConfigError(
                f"model.family must be {_EQUATIONS[eq]} for equation {eq}, got {family!r}")
        for key in ("h", "U"):  # the per-site lists, where the run reads them
            values = cfg.get("model", {}).get(key)
            if isinstance(values, list) and len(values) != n \
                    and _row_read(f"model.{key}", run) is not None:
                raise ConfigError(
                    f"model.{key} must have one entry per site ({n}), got {len(values)}")
        if eq == "coupled-gp":
            U = _get(cfg, "model.U", run)
            if len(set(_listed(U))) != 1:
                raise ConfigError(
                    f"model.U must be one uniform value for equation coupled-gp, got {U!r}")
        if eq not in _LATTICE and _get(cfg, "integrator.snapshot_every", run) > 0:
            raise ConfigError(
                f"integrator.snapshot_every must be 0 for equation {eq}: "
                "field.csv holds only the final field")
    for section in ("initial", "initial2", "potential", "study"):
        opts = cfg.get(section)
        if opts is None:
            continue
        kind = _get(cfg, f"{section}.profile", run) or "zero"
        unread = sorted((opts.keys() & _ANY_PROFILE) - _PROFILES[kind])
        if unread:
            raise ConfigError(f"{section}.{unread[0]} is not read by profile {kind}")
        if kind == "file" and "path" not in opts:
            raise ConfigError(f"{section}.profile = file requires {section}.path")


def validate_config(cfg: dict, command: str) -> dict:
    """Return a validated copy of cfg with defaults filled in where the run reads them."""
    given = _given(cfg)
    for path, value in given:
        _ROWS[path][0].check(path, value)
    run, by = _run(cfg, command)
    _check_rules(cfg, command, run)
    for path, _ in given:
        if _row_read(path, run) is None:
            raise ConfigError(f"{path} is not read by {by}")

    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    for section, rows in _DEFAULTS.items():
        for key, row in rows:
            tree = out.get(section) if key else out
            if tree is None:
                break  # the run does not read the section
            if (key or section) in tree or (
                    row.readers is not None and row.readers.isdisjoint(run)):
                continue
            value = row.default
            if callable(value):
                value = value(out)
            elif isinstance(value, (dict, list)):
                value = value.copy()
            tree[key or section] = value
    return out


def model_params(cfg: dict):
    """Build the frozen parameter object for the validated config."""
    try:
        return _build_params(cfg["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_params(model: dict):
    from .models import HubbardParams, XXZParams

    if model["family"] == "hubbard":
        return HubbardParams(
            N=model["N"], t=float(model["t"]), U=model["U"],
            hbar=float(model["hbar"]),
        )
    return XXZParams(
        N=model["N"], J0=float(model["J0"]), J1=float(model["J1"]),
        R0=float(model["R0"]), R1=float(model["R1"]), s=float(model["s"]),
        hbar=float(model.get("hbar", 1.0)), x_xi=float(model["x_xi"]),
        h=model.get("h"),
    )
