"""Run-file parsing and validation.

The format is flat `key = value` lines with `#` comments; lists are
comma separated.  Unknown keys, duplicate keys, malformed values, and
cross-field inconsistencies are all hard errors carrying line numbers
where one exists.  The mode follows from the inputs; a stated `mode`
must agree with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .spin import ChannelLength, as_length

TASKS = ("roots", "theta-sweep", "r-sweep", "ladder", "invariance-suite")
FORMATS = ("csv", "json", "svg")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str
    mode: str = "asymptotic"
    out: str = "."
    formats: tuple[str, ...] = ("csv", "json")
    # matrix input, exactly one form per matrix-consuming task
    matrix: tuple[float, ...] | None = None        # a11,a12,a13,a22,a23,a33
    toy: tuple[float, ...] | None = None           # a11,a22,a12,a33
    theta: float | None = None
    a_alpha: ChannelLength | None = None
    a_beta: ChannelLength | None = None
    a_gamma: ChannelLength | None = None
    kappa: float | None = None                     # ladder only
    # grids
    theta_min: float | None = None
    theta_max: float | None = None
    theta_count: int | None = None
    radius: float | None = None                    # key "R"
    r_min: float | None = None
    r_max: float | None = None
    r_count: int | None = None
    kappa_max: float | None = None
    s_max: float | None = None
    # ladder
    wall_radius: float | None = None               # key "r0"
    n_levels: int | None = None
    mass: float | None = None
    # invariance suite
    seed: int | None = None
    trials: int | None = None


def _one_of(*choices):
    def parse(key, raw, line):
        if raw not in choices:
            raise ConfigError(f"line {line}: key '{key}': must be one of "
                              f"{', '.join(choices)}, got {raw!r}")
        return raw
    return parse


_parse_task = _one_of(*TASKS)


def _parse_format(key, raw, line):
    parts = tuple(p.strip() for p in raw.split(","))
    if any(p not in FORMATS for p in parts):
        raise ConfigError(
            f"line {line}: key 'format': formats must be a subset of "
            f"{','.join(FORMATS)}, got {raw!r}")
    return parts


def _parse_float(key, raw, line):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"line {line}: key '{key}': must be finite")
    return v


def _parse_positive(key, raw, line):
    v = _parse_float(key, raw, line)
    if v <= 0:
        raise ConfigError(f"line {line}: key '{key}': must be positive")
    return v


def _parse_int(key, raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': not an integer: {raw!r}") from None


def _parse_length(key, raw, line):
    try:
        return as_length(raw)
    except ValueError:
        raise ConfigError(
            f"line {line}: key '{key}': expected a number, 'unitary' or "
            f"'closed', got {raw!r}") from None


def _float_list(count):
    def parse(key, raw, line):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != count:
            raise ConfigError(
                f"line {line}: key '{key}': expected {count} comma-separated "
                f"values, got {len(parts)}")
        return tuple(_parse_float(key, p, line) for p in parts)
    return parse


_ANGLE_TASKS = ("roots", "theta-sweep", "r-sweep", "ladder")

#: run-file key -> (RunConfig field, parser, the tasks that take it, None
#: meaning every task), in serialization order
_KEYS = {
    "task": ("task", _parse_task, None),
    "mode": ("mode", _one_of("asymptotic", "finite"), None),
    "out": ("out", lambda key, raw, line: raw, None),
    "format": ("formats", _parse_format, None),
    "matrix": ("matrix", _float_list(6), ("roots",)),
    "toy": ("toy", _float_list(4), ("roots",)),
    "theta": ("theta", _parse_float, ("roots", "r-sweep", "ladder")),
    "a_alpha": ("a_alpha", _parse_length, _ANGLE_TASKS),
    "a_beta": ("a_beta", _parse_length, _ANGLE_TASKS),
    "a_gamma": ("a_gamma", _parse_length, _ANGLE_TASKS),
    "kappa": ("kappa", _parse_positive, ("ladder",)),
    "theta_min": ("theta_min", _parse_float, ("theta-sweep",)),
    "theta_max": ("theta_max", _parse_float, ("theta-sweep",)),
    "theta_count": ("theta_count", _parse_int, ("theta-sweep",)),
    "R": ("radius", _parse_positive,
          ("roots", "theta-sweep", "invariance-suite")),
    "R_min": ("r_min", _parse_float, ("r-sweep",)),
    "R_max": ("r_max", _parse_float, ("r-sweep",)),
    "R_count": ("r_count", _parse_int, ("r-sweep",)),
    "kappa_max": ("kappa_max", _parse_positive, None),
    "s_max": ("s_max", _parse_float, None),
    "r0": ("wall_radius", _parse_positive, ("ladder",)),
    "n_levels": ("n_levels", _parse_int, ("ladder",)),
    "mass": ("mass", _parse_positive, ("ladder",)),
    "seed": ("seed", _parse_int, ("invariance-suite",)),
    "trials": ("trials", _parse_int, ("invariance-suite",)),
}

#: per-task values of the fields a run file leaves out
_DEFAULTS = {
    "theta-sweep": {"theta_min": 0.0, "theta_max": 0.5 * math.pi,
                    "theta_count": 201},
    "r-sweep": {"r_count": 129, "kappa_max": 10.0},
    "ladder": {"wall_radius": 1e-3, "n_levels": 4, "mass": 1.0},
    "invariance-suite": {"seed": 1234, "trials": 50, "radius": 1.0,
                         "kappa_max": 10.0},
}

#: field -> (least, most) accepted value.  Larger grids and suites are
#: refused before anything is allocated; ladder energies fall by
#: exp(2 pi/kappa) per level, so at r0 = 1e-3 the levels above 1e-290 are
#: 109 at kappa 1.00624 and 44 at 0.41370, and a larger n_levels returns
#: those with a depth-exhausted warning.  s_max's bounds are those of
#: hyperangular.S_MAX_LIMIT, repeated here so the parse imports no solver.
_BOUNDS = {
    "theta_count": (2, 100_000),
    "r_count": (3, 100_000),
    "n_levels": (1, 100),
    "trials": (1, 10_000),
    "s_max": (2, 100),
}


def parse_config(text: str, cli_task: str | None = None) -> RunConfig:
    """Parse and validate a run file; unknown keys are errors.

    cli_task, when given, fills a missing `task` key and must agree with
    an explicit one.
    """
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first on line {raw[key][1]})")
        raw[key] = (value, lineno)

    if "task" in raw:
        task = _parse_task("task", *raw.pop("task"))
        if cli_task is not None and cli_task != task:
            raise ConfigError(
                f"config task '{task}' does not match requested task '{cli_task}'")
    elif cli_task is not None:
        task = cli_task
    else:
        raise ConfigError("no task given (config key 'task' or CLI argument)")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")

    for key, (_, lineno) in raw.items():
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        tasks = _KEYS[key][2]
        if tasks is not None and task not in tasks:
            raise ConfigError(
                f"line {lineno}: key '{key}' is not allowed for task '{task}'")

    values = dict(_DEFAULTS.get(task, {}))
    for key, (value, lineno) in raw.items():
        name, parse, _ = _KEYS[key]
        values[name] = parse(key, value, lineno)
        least, most = _BOUNDS.get(name, (None, None))
        if least is not None and values[name] < least:
            raise ConfigError(f"line {lineno}: key '{key}': must be at least {least}")
        if most is not None and values[name] > most:
            raise ConfigError(f"line {lineno}: key '{key}': at most {most}")
    cfg = RunConfig(task=task, **values)
    _validate(cfg, {k: l for k, (_, l) in raw.items()})
    return cfg


def _err(key, lines, message):
    loc = f"line {lines[key]}: " if key in lines else ""
    raise ConfigError(f"{loc}key '{key}': {message}")


def _validate(cfg: RunConfig, lines: dict[str, int]) -> None:
    """The rules that tie one field to another.  Sets cfg.mode as
    ChannelMatrixSpec.mode does: finite for a finite length and for
    matrix, toy and invariance-suite input, else asymptotic."""
    keys = [k for k in ("a_alpha", "a_beta", "a_gamma")
            if getattr(cfg, k) is not None]
    finite = any(getattr(cfg, k).kind == "finite" for k in keys)
    mode = ("finite" if finite or cfg.matrix is not None or cfg.toy is not None
            or cfg.task == "invariance-suite" else "asymptotic")
    if "mode" in lines and cfg.mode != mode:
        _err("mode", lines, f"the inputs give {mode} mode, not {cfg.mode}")
    cfg.mode = mode

    forms = []
    if cfg.matrix is not None:
        forms.append("matrix")
    if cfg.toy is not None:
        forms.append("toy")
    if keys or (cfg.theta is not None and cfg.task != "r-sweep"):
        forms.append("angle")
    if cfg.kappa is not None:
        forms.append("kappa")

    # the invariance suite takes no matrix; it draws seeded random ones
    if cfg.task != "invariance-suite" and len(forms) != 1:
        raise ConfigError(
            "exactly one matrix-input form is required "
            f"(matrix | toy | angle | kappa for ladder); found {forms or 'none'}")

    if "angle" in forms:
        missing = [k for k in ("a_alpha", "a_beta", "a_gamma") if k not in keys]
        if missing:
            raise ConfigError(
                f"angle form needs a_alpha, a_beta and a_gamma; missing {missing}")
        if cfg.theta is None and cfg.task != "theta-sweep":
            raise ConfigError(f"task '{cfg.task}' needs an explicit theta")
        if cfg.theta is not None and not 0.0 <= cfg.theta <= math.pi / 2:
            _err("theta", lines, f"must lie in [0, pi/2], got {cfg.theta}")
        for key in keys:
            if finite and getattr(cfg, key).kind == "unitary":
                _err(key, lines, "finite and unitary channels do not mix")

    # the ladder reads its exponent from the asymptotic problem
    need = {"r-sweep": "finite", "ladder": "asymptotic"}.get(cfg.task, mode)
    if mode != need:
        raise ConfigError(f"task '{cfg.task}' runs in {need} mode; its "
                          f"channel lengths give {mode} mode")

    if cfg.task in ("roots", "theta-sweep"):
        if mode == "finite" and cfg.radius is None:
            runs = "roots need" if cfg.task == "roots" else "theta-sweep needs"
            raise ConfigError(f"finite-mode {runs} R")
        if mode == "asymptotic" and cfg.radius is not None:
            _err("R", lines, "asymptotic mode takes no hyperradius")

    if cfg.task == "theta-sweep" and \
            not 0.0 <= cfg.theta_min < cfg.theta_max <= math.pi / 2 + 1e-12:
        raise ConfigError(
            f"theta grid [{cfg.theta_min}, {cfg.theta_max}] must be "
            "ascending inside [0, pi/2]")

    if cfg.task == "r-sweep":
        if cfg.r_min is None or cfg.r_max is None:
            raise ConfigError("r-sweep needs R_min and R_max")
        if not 0.0 < cfg.r_min < cfg.r_max:
            raise ConfigError(
                f"R grid [{cfg.r_min}, {cfg.r_max}] must be positive ascending")


def _format_value(value) -> str:
    if isinstance(value, ChannelLength):
        return value.describe()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical run-file text; parse_config(serialize_config(c)) == c."""
    out = []
    for key, (name, _, _) in _KEYS.items():
        value = getattr(cfg, name)
        if value is not None:
            out.append(f"{key} = {_format_value(value)}")
    return "\n".join(out) + "\n"


def config_as_dict(cfg: RunConfig) -> dict:
    """Config echo for result metadata."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, ChannelLength):
            value = value.kind if value.kind != "finite" else value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out
