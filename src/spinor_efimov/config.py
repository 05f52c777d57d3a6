"""Run-file parsing and validation.

The format is flat `key = value` lines with `#` comments; lists are
comma separated.  Unknown keys, duplicate keys, malformed values, and
cross-field inconsistencies are all hard errors carrying line numbers
where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .spin import ChannelLength, as_length

TASKS = ("roots", "theta-sweep", "r-sweep", "ladder", "invariance-suite")
FORMATS = ("csv", "json", "svg")


class ConfigError(ValueError):
    pass


#: largest accepted grid and trial counts; larger values are refused
#: before anything is allocated
MAX_GRID_COUNT = 100_000
MAX_TRIALS = 10_000


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


_COMMON_KEYS = ("task", "mode", "out", "format", "kappa_max", "s_max")
_TASK_KEYS = {
    "roots": ("matrix", "toy", "theta", "a_alpha", "a_beta", "a_gamma", "R"),
    "theta-sweep": ("a_alpha", "a_beta", "a_gamma", "theta_min", "theta_max",
                    "theta_count", "R"),
    "r-sweep": ("theta", "a_alpha", "a_beta", "a_gamma", "R_min", "R_max",
                "R_count"),
    "ladder": ("kappa", "theta", "a_alpha", "a_beta", "a_gamma", "r0",
               "n_levels", "mass"),
    "invariance-suite": ("seed", "trials", "R"),
}
# config key -> RunConfig field
_KEY_FIELD = {
    "R": "radius", "R_min": "r_min", "R_max": "r_max", "R_count": "r_count",
    "r0": "wall_radius", "format": "formats",
}


def _field_of(key: str) -> str:
    return _KEY_FIELD.get(key, key)


def _parse_float(key, raw, line):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"line {line}: key '{key}': must be finite")
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


def _parse_float_list(key, raw, line, count):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != count:
        raise ConfigError(
            f"line {line}: key '{key}': expected {count} comma-separated "
            f"values, got {len(parts)}")
    return tuple(_parse_float(key, p, line) for p in parts)


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

    # task resolution
    if "task" in raw:
        task, tline = raw.pop("task")
        if task not in TASKS:
            raise ConfigError(
                f"line {tline}: key 'task': unknown task {task!r}; "
                f"expected one of {', '.join(TASKS)}")
        if cli_task is not None and cli_task != task:
            raise ConfigError(
                f"config task '{task}' does not match requested task '{cli_task}'")
    elif cli_task is not None:
        task = cli_task
    else:
        raise ConfigError("no task given (config key 'task' or CLI argument)")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")

    allowed = set(_COMMON_KEYS) | set(_TASK_KEYS[task])
    for key, (_, lineno) in raw.items():
        if key not in allowed and key in {k for ks in _TASK_KEYS.values() for k in ks}:
            raise ConfigError(
                f"line {lineno}: key '{key}' is not allowed for task '{task}'")
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")

    cfg = RunConfig(task=task)
    parsers = {
        "mode": lambda k, v, l: v,
        "out": lambda k, v, l: v,
        "format": _parse_format,
        "matrix": lambda k, v, l: _parse_float_list(k, v, l, 6),
        "toy": lambda k, v, l: _parse_float_list(k, v, l, 4),
        "theta": _parse_float,
        "a_alpha": _parse_length, "a_beta": _parse_length, "a_gamma": _parse_length,
        "kappa": _parse_float,
        "theta_min": _parse_float, "theta_max": _parse_float,
        "theta_count": _parse_int,
        "R": _parse_float, "R_min": _parse_float, "R_max": _parse_float,
        "R_count": _parse_int,
        "kappa_max": _parse_float, "s_max": _parse_float,
        "r0": _parse_float, "n_levels": _parse_int, "mass": _parse_float,
        "seed": _parse_int, "trials": _parse_int,
    }
    for key, (value, lineno) in raw.items():
        setattr(cfg, _field_of(key), parsers[key](key, value, lineno))

    _validate(cfg, {k: l for k, (_, l) in raw.items()})
    return cfg


def _parse_format(key, raw, line):
    parts = tuple(p.strip() for p in raw.split(","))
    bad = [p for p in parts if p not in FORMATS]
    if bad or not parts:
        raise ConfigError(
            f"line {line}: key 'format': formats must be a subset of "
            f"{','.join(FORMATS)}, got {raw!r}")
    return parts


def _err(key, lines, message):
    loc = f"line {lines[key]}: " if key in lines else ""
    raise ConfigError(f"{loc}key '{key}': {message}")


def _validate(cfg: RunConfig, lines: dict[str, int]) -> None:
    half_pi = 0.5 * math.pi

    if cfg.mode not in ("asymptotic", "finite"):
        _err("mode", lines, f"must be 'asymptotic' or 'finite', got {cfg.mode!r}")
    if cfg.task == "r-sweep":
        if "mode" in lines and cfg.mode != "finite":
            _err("mode", lines, "r-sweep runs in finite mode")
        cfg.mode = "finite"

    angle_keys = [k for k in ("a_alpha", "a_beta", "a_gamma")
                  if getattr(cfg, k) is not None]
    forms = []
    if cfg.matrix is not None:
        forms.append("matrix")
    if cfg.toy is not None:
        forms.append("toy")
    if angle_keys or (cfg.theta is not None and cfg.task != "r-sweep"):
        forms.append("angle")
    if cfg.kappa is not None:
        forms.append("kappa")

    if cfg.task == "invariance-suite":
        pass  # no matrix input; draws seeded random matrices
    elif len(forms) != 1:
        raise ConfigError(
            "exactly one matrix-input form is required "
            f"(matrix | toy | angle | kappa for ladder); found {forms or 'none'}")

    if "angle" in forms:
        missing = [k for k in ("a_alpha", "a_beta", "a_gamma")
                   if getattr(cfg, k) is None]
        if missing:
            raise ConfigError(
                f"angle form needs a_alpha, a_beta and a_gamma; missing {missing}")
        if cfg.task in ("roots", "ladder", "r-sweep"):
            if cfg.theta is None:
                raise ConfigError(f"task '{cfg.task}' needs an explicit theta")
        if cfg.theta is not None and not 0.0 <= cfg.theta <= half_pi:
            _err("theta", lines, f"must lie in [0, pi/2], got {cfg.theta}")
        for key in ("a_alpha", "a_beta", "a_gamma"):
            length = getattr(cfg, key)
            if cfg.mode == "finite" and length.kind == "unitary":
                _err(key, lines, "finite mode forbids the unitary flag; "
                                 "use asymptotic mode or a finite length")
            if cfg.mode == "asymptotic" and length.kind == "finite":
                _err(key, lines, "asymptotic mode takes only unitary/closed "
                                 "flags; use finite mode for numbers")
    if "kappa" in forms:
        if cfg.task != "ladder":
            _err("kappa", lines, "direct kappa input is only for the ladder task")
        if cfg.kappa <= 0:
            _err("kappa", lines, f"must be positive, got {cfg.kappa}")
    if cfg.matrix is not None or cfg.toy is not None:
        if cfg.mode != "finite":
            raise ConfigError(
                "matrix and toy input carry finite entries; set mode = finite")

    if cfg.task == "roots":
        if cfg.mode == "finite":
            if cfg.radius is None:
                raise ConfigError("finite-mode roots need R")
            if cfg.radius <= 0:
                _err("R", lines, "must be positive")
        elif cfg.radius is not None:
            _err("R", lines, "asymptotic mode takes no hyperradius")

    if cfg.task == "theta-sweep":
        cfg.theta_min = 0.0 if cfg.theta_min is None else cfg.theta_min
        cfg.theta_max = half_pi if cfg.theta_max is None else cfg.theta_max
        cfg.theta_count = 201 if cfg.theta_count is None else cfg.theta_count
        if not 0.0 <= cfg.theta_min < cfg.theta_max <= half_pi + 1e-12:
            raise ConfigError(
                f"theta grid [{cfg.theta_min}, {cfg.theta_max}] must be "
                "ascending inside [0, pi/2]")
        if cfg.theta_count < 2:
            _err("theta_count", lines, "needs at least 2 points")
        if cfg.theta_count > MAX_GRID_COUNT:
            _err("theta_count", lines, f"at most {MAX_GRID_COUNT} points")
        if cfg.mode == "finite":
            if cfg.radius is None:
                raise ConfigError("finite-mode theta-sweep needs R")
        elif cfg.radius is not None:
            _err("R", lines, "asymptotic mode takes no hyperradius")

    if cfg.task == "r-sweep":
        if cfg.r_min is None or cfg.r_max is None:
            raise ConfigError("r-sweep needs R_min and R_max")
        if not 0.0 < cfg.r_min < cfg.r_max:
            raise ConfigError(
                f"R grid [{cfg.r_min}, {cfg.r_max}] must be positive ascending")
        cfg.r_count = 129 if cfg.r_count is None else cfg.r_count
        if cfg.r_count < 3:
            _err("R_count", lines, "needs at least 3 points")
        if cfg.r_count > MAX_GRID_COUNT:
            _err("R_count", lines, f"at most {MAX_GRID_COUNT} points")
        cfg.kappa_max = 10.0 if cfg.kappa_max is None else cfg.kappa_max

    if cfg.task == "ladder":
        if "angle" in forms and cfg.mode != "asymptotic":
            raise ConfigError(
                "the ladder task reads its channel exponent from the "
                "asymptotic problem; angle form requires mode = asymptotic")
        cfg.wall_radius = 1e-3 if cfg.wall_radius is None else cfg.wall_radius
        cfg.n_levels = 4 if cfg.n_levels is None else cfg.n_levels
        cfg.mass = 1.0 if cfg.mass is None else cfg.mass
        if cfg.wall_radius <= 0:
            _err("r0", lines, "must be positive")
        if cfg.n_levels < 1:
            _err("n_levels", lines, "must be at least 1")
        if cfg.mass <= 0:
            _err("mass", lines, "must be positive")

    if cfg.task == "invariance-suite":
        cfg.seed = 1234 if cfg.seed is None else cfg.seed
        cfg.trials = 50 if cfg.trials is None else cfg.trials
        cfg.radius = 1.0 if cfg.radius is None else cfg.radius
        cfg.kappa_max = 10.0 if cfg.kappa_max is None else cfg.kappa_max
        if cfg.trials < 1:
            _err("trials", lines, "must be at least 1")
        if cfg.trials > MAX_TRIALS:
            _err("trials", lines, f"at most {MAX_TRIALS}")
        if cfg.radius <= 0:
            _err("R", lines, "must be positive")

    if cfg.kappa_max is not None and cfg.kappa_max <= 0:
        _err("kappa_max", lines, "must be positive")
    if cfg.s_max is not None and cfg.s_max < 2.0:
        _err("s_max", lines, "must be at least 2")


def _format_value(field_name, value) -> str:
    if isinstance(value, ChannelLength):
        return value.kind if value.kind != "finite" else repr(value.value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical run-file text; parse_config(serialize_config(c)) == c."""
    out = [f"task = {cfg.task}", f"mode = {cfg.mode}", f"out = {cfg.out}",
           f"format = {','.join(cfg.formats)}"]
    reverse = {v: k for k, v in _KEY_FIELD.items()}
    for f in fields(cfg):
        if f.name in ("task", "mode", "out", "formats"):
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        key = reverse.get(f.name, f.name)
        out.append(f"{key} = {_format_value(f.name, value)}")
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
