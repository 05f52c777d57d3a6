import itertools
import re
from pathlib import Path

import pytest

from spinor_efimov import config
from spinor_efimov.cli import main
from spinor_efimov.config import (
    ConfigError,
    parse_config,
    serialize_config,
)


def test_minimal_roots_file_fills_defaults():
    cfg = parse_config("""
        task = roots
        theta = 0
        a_alpha = closed
        a_beta = unitary
        a_gamma = closed
    """)
    assert cfg.task == "roots"
    assert cfg.mode == "asymptotic"
    assert cfg.theta == 0.0
    assert cfg.a_beta.kind == "unitary"
    assert cfg.out == "."
    assert cfg.formats == ("csv", "json")
    assert cfg.kappa_max is None  # auto default downstream


def test_theta_range_error_names_key():
    with pytest.raises(ConfigError, match="'theta'"):
        parse_config("""
            task = roots
            theta = 2.0
            a_alpha = closed
            a_beta = unitary
            a_gamma = closed
        """)


def test_matrix_and_angle_exclusive():
    with pytest.raises(ConfigError, match="exactly one matrix-input form"):
        parse_config("""
            task = roots
            mode = finite
            R = 1.0
            matrix = 1,0,0,1,0,1
            theta = 0.3
            a_alpha = 1.0
            a_beta = 2.0
            a_gamma = 3.0
        """)


def test_unknown_key_is_line_numbered():
    with pytest.raises(ConfigError, match="line 3: unknown key 'frobnicate'"):
        parse_config("task = roots\ntheta = 0.1\nfrobnicate = yes\n"
                     "a_alpha = closed\na_beta = unitary\na_gamma = closed\n")


def test_key_not_allowed_for_task():
    with pytest.raises(ConfigError, match="not allowed for task 'roots'"):
        parse_config("""
            task = roots
            theta = 0.1
            a_alpha = closed
            a_beta = unitary
            a_gamma = closed
            n_levels = 3
        """)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'theta'"):
        parse_config("task = roots\ntheta = 0.1\ntheta = 0.2\n")


def test_bad_number_is_line_numbered():
    with pytest.raises(ConfigError, match="line 2.*not a number"):
        parse_config("task = roots\ntheta = abc\n")


def test_finite_mode_rejects_unitary_flag():
    with pytest.raises(ConfigError, match="^line 7: key 'a_beta': finite and "
                                          "unitary channels do not mix"):
        parse_config("""
            task = roots
            mode = finite
            R = 1.0
            theta = 0.1
            a_alpha = 1.0
            a_beta = unitary
            a_gamma = closed
        """)


def test_asymptotic_mode_rejects_numbers():
    with pytest.raises(ConfigError, match="^line 5: key 'a_beta': finite and "
                                          "unitary channels do not mix"):
        parse_config("""
            task = roots
            theta = 0.1
            a_alpha = 1.0
            a_beta = unitary
            a_gamma = closed
        """)


def test_finite_roots_need_radius():
    with pytest.raises(ConfigError, match="finite-mode roots need R"):
        parse_config("""
            task = roots
            mode = finite
            theta = 0.1
            a_alpha = 1.0
            a_beta = 100.0
            a_gamma = closed
        """)


def test_r_sweep_defaults_and_validation():
    cfg = parse_config("""
        task = r-sweep
        theta = 0
        a_alpha = 1.0
        a_beta = 1e6
        a_gamma = closed
        R_min = 1e-2
        R_max = 1e6
    """)
    assert cfg.mode == "finite"
    assert cfg.r_count == 129
    assert cfg.kappa_max == 10.0
    with pytest.raises(ConfigError, match="task 'r-sweep' runs in finite mode"):
        parse_config("""
            task = r-sweep
            mode = asymptotic
            theta = 0
            a_alpha = closed
            a_beta = unitary
            a_gamma = closed
            R_min = 1
            R_max = 10
        """)
    with pytest.raises(ConfigError, match="needs R_min and R_max"):
        parse_config("task = r-sweep\ntheta = 0\n"
                     "a_alpha = 1\na_beta = 1e6\na_gamma = closed\n")


def test_ladder_kappa_form():
    cfg = parse_config("task = ladder\nkappa = 1.00624\n")
    assert cfg.kappa == 1.00624
    assert cfg.n_levels == 4
    assert cfg.wall_radius == 1e-3
    assert cfg.mass == 1.0
    with pytest.raises(ConfigError, match="not allowed for task 'roots'"):
        parse_config("task = roots\nkappa = 1.0\n")


def test_ladder_angle_form_requires_asymptotic():
    with pytest.raises(ConfigError,
                       match="task 'ladder' runs in asymptotic mode"):
        parse_config("""
            task = ladder
            mode = finite
            theta = 1.5707963267948966
            a_alpha = 1.0
            a_beta = 100.0
            a_gamma = closed
        """)


@pytest.mark.parametrize("text, mode", [
    ("task = roots\ntheta = 0\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\n", "asymptotic"),
    ("task = roots\nR = 1\ntheta = 0\na_alpha = 1\na_beta = 2\n"
     "a_gamma = closed\n", "finite"),
    ("task = roots\nR = 1\nmatrix = 1,0,0,1,0,1\n", "finite"),
    ("task = roots\nR = 1\ntoy = 1,2,0.5,3\n", "finite"),
    ("task = theta-sweep\nR = 1\na_alpha = 1\na_beta = closed\n"
     "a_gamma = closed\n", "finite"),
    ("task = ladder\nkappa = 1\n", "asymptotic"),
    ("task = invariance-suite\n", "finite"),
])
def test_mode_follows_from_the_inputs(text, mode):
    """With no mode line the inputs fix the mode, and stating that mode
    changes nothing."""
    cfg = parse_config(text)
    assert cfg.mode == mode
    assert parse_config(f"mode = {mode}\n" + text) == cfg


@pytest.mark.parametrize("text, mode", [
    ("task = roots\nR = 1\ntheta = 0\na_alpha = 1\na_beta = 2\n"
     "a_gamma = closed\n", "asymptotic"),
    ("task = roots\nR = 1\nmatrix = 1,0,0,1,0,1\n", "asymptotic"),
    ("task = roots\ntheta = 0\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\n", "finite"),
    ("task = theta-sweep\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\n", "finite"),
    ("task = invariance-suite\n", "asymptotic"),
])
def test_contradicted_mode_refused_at_its_line(text, mode):
    with pytest.raises(ConfigError, match=rf"^line 1: key 'mode': the inputs "
                                          rf"give \w+ mode, not {mode}$"):
        parse_config(f"mode = {mode}\n" + text)


@pytest.mark.parametrize("text, message", [
    ("task = theta-sweep\na_alpha = 1\na_beta = 2\na_gamma = closed\n",
     "^finite-mode theta-sweep needs R$"),
    ("task = theta-sweep\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\nR = 1\n",
     "^line 5: key 'R': asymptotic mode takes no hyperradius$"),
    ("task = roots\ntheta = 0\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\nR = 1\n",
     "^line 6: key 'R': asymptotic mode takes no hyperradius$"),
    ("task = theta-sweep\nR = 1\na_alpha = unitary\na_beta = 1\n"
     "a_gamma = closed\n",
     "^line 3: key 'a_alpha': finite and unitary channels do not mix$"),
])
def test_rules_on_the_derived_mode(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_invariance_suite_defaults():
    cfg = parse_config("task = invariance-suite\n")
    assert cfg.seed == 1234
    assert cfg.trials == 50
    assert cfg.radius == 1.0
    assert cfg.kappa_max == 10.0


def test_format_validation():
    cfg = parse_config("task = invariance-suite\nformat = json\n")
    assert cfg.formats == ("json",)
    with pytest.raises(ConfigError, match="'format'"):
        parse_config("task = invariance-suite\nformat = png\n")


def test_task_cli_agreement():
    with pytest.raises(ConfigError, match="does not match requested task"):
        parse_config("task = roots\ntheta = 0\na_alpha = closed\n"
                     "a_beta = unitary\na_gamma = closed\n",
                     cli_task="ladder")
    cfg = parse_config("theta = 0\na_alpha = closed\na_beta = unitary\n"
                       "a_gamma = closed\n", cli_task="roots")
    assert cfg.task == "roots"
    with pytest.raises(ConfigError, match="no task given"):
        parse_config("theta = 0\n")


def test_syntax_errors():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("task = roots\njust some words\n")
    with pytest.raises(ConfigError, match="has no value"):
        parse_config("task =\n")


@pytest.mark.parametrize("text", [
    """task = roots
       theta = 0.4
       a_alpha = closed
       a_beta = unitary
       a_gamma = closed
       s_max = 5.0""",
    """task = theta-sweep
       a_alpha = closed
       a_beta = unitary
       a_gamma = closed
       theta_count = 21
       format = csv,json,svg""",
    """task = r-sweep
       theta = 1.5707963267948966
       a_alpha = 1.0
       a_beta = 1000000.0
       a_gamma = closed
       R_min = 0.01
       R_max = 1000000.0
       R_count = 33""",
    """task = ladder
       kappa = 1.00624
       n_levels = 3
       r0 = 0.002""",
    """task = invariance-suite
       seed = 7
       trials = 5""",
])
def test_serialize_round_trip(text):
    cfg = parse_config("\n".join(l.strip() for l in text.splitlines()))
    assert parse_config(serialize_config(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
        # a comment
        task = ladder   # trailing comment

        kappa = 1.0
    """)
    assert cfg.kappa == 1.0


_SWEEP_HEAD = "task = theta-sweep\na_alpha = closed\na_beta = unitary\n" \
    "a_gamma = closed\n"
_R_HEAD = "task = r-sweep\ntheta = 0\na_alpha = 1\na_beta = 1e6\n" \
    "a_gamma = closed\nR_min = 1e-2\nR_max = 1e6\n"
_FINITE_SWEEP_HEAD = "task = theta-sweep\nmode = finite\na_alpha = 1\n" \
    "a_beta = 2\na_gamma = closed\n"


@pytest.mark.parametrize("text, key, line, rule", [
    (_SWEEP_HEAD + "theta_count = 1000000000\n", "theta_count", 5, "at most"),
    (_SWEEP_HEAD + "theta_count = 100001\n", "theta_count", 5, "at most"),
    (_R_HEAD + "R_count = 100001\n", "R_count", 8, "at most"),
    ("task = invariance-suite\ntrials = 10001\n", "trials", 2, "at most"),
    ("task = ladder\nkappa = 1.00624\nn_levels = 101\n", "n_levels", 3,
     "at most"),
    ("task = ladder\nkappa = 50\nn_levels = 1000000\n", "n_levels", 3,
     "at most"),
    (_SWEEP_HEAD + "s_max = 1e15\n", "s_max", 5, "at most"),
    (_SWEEP_HEAD + "s_max = 100.5\n", "s_max", 5, "at most"),
    (_FINITE_SWEEP_HEAD + "R = -1\n", "R", 6, "must be positive"),
    (_FINITE_SWEEP_HEAD + "R = 0\n", "R", 6, "must be positive"),
])
def test_oversized_counts_refused_with_line(text, key, line, rule):
    with pytest.raises(ConfigError, match=rf"^line {line}: key '{key}': {rule}"):
        parse_config(text)


def test_s_max_bound_is_the_solver_limit():
    """The parse refuses s_max where the root finder would, and at the
    cap itself accepts it."""
    from spinor_efimov import config, hyperangular
    assert config._BOUNDS["s_max"] == (2, hyperangular.S_MAX_LIMIT)
    assert parse_config(_SWEEP_HEAD + "s_max = 100\n").s_max == 100.0


def test_counts_at_the_cap_accepted():
    assert parse_config(_SWEEP_HEAD + "theta_count = 100000\n").theta_count \
        == 100_000
    assert parse_config(_R_HEAD + "R_count = 100000\n").r_count == 100_000
    assert parse_config("task = invariance-suite\ntrials = 10000\n").trials \
        == 10_000
    assert parse_config("task = ladder\nkappa = 1.00624\nn_levels = 100\n") \
        .n_levels == 100
    assert parse_config(_FINITE_SWEEP_HEAD + "R = 5e-324\n").radius == 5e-324


def _readme_key_table():
    """(keys, tasks, accepted values) of each row of the key table under
    README "Run files"; escaped pipes stay inside their cell."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| key | tasks | default | accepted values |") + 2
    rows = []
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        keys, tasks, _, accepted = (
            c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1])
        rows.append((re.findall(r"`([^`]+)`", keys), tasks, accepted))
    return rows


def test_readme_key_table_matches_config():
    """README's key table lists config._KEYS in order, each key with its
    tasks, and each "A to B" range is that field's config._BOUNDS."""
    rows = _readme_key_table()
    assert [k for keys, _, _ in rows for k in keys] == list(config._KEYS)
    ranges = {}
    for keys, tasks, accepted in rows:
        for key in keys:
            name, _, allowed = config._KEYS[key]
            assert tasks == ("all" if allowed is None
                             else ", ".join(allowed)), key
            bounds = re.match(r"([\d,]+) to ([\d,]+)", accepted)
            if bounds:
                ranges[name] = tuple(int(b.replace(",", ""))
                                     for b in bounds.groups())
    assert ranges == config._BOUNDS


@pytest.mark.parametrize("text, cli_task, message", [
    ("task = roots\nmode = both\ntoy = 1,2,1,3\n", None,
     "line 2: key 'mode': must be one of asymptotic, finite, got 'both'"),
    ("task = ladder\ntheta = nan\n", None,
     "line 2: key 'theta': must be finite"),
    ("task = theta-sweep\ntheta_count = 2.5\n", None,
     "line 2: key 'theta_count': not an integer: '2.5'"),
    ("task = roots\na_alpha = foo\n", None,
     "line 2: key 'a_alpha': expected a number, 'unitary' or 'closed', "
     "got 'foo'"),
    ("task = roots\ntoy = 1,2,3\n", None,
     "line 2: key 'toy': expected 4 comma-separated values, got 3"),
    ("task = theta-sweep\ntheta_count = 1\n", None,
     "line 2: key 'theta_count': must be at least 2"),
    ("a_alpha = 1\n", "bogus", "unknown task 'bogus'"),
    ("task = roots\ntheta = 0.5\na_alpha = 1\na_beta = 2\nR = 1\n", None,
     "angle form needs a_alpha, a_beta and a_gamma; missing ['a_gamma']"),
    ("task = roots\na_alpha = 1\na_beta = 2\na_gamma = closed\nR = 1\n", None,
     "task 'roots' needs an explicit theta"),
    ("task = theta-sweep\ntheta_min = 1\ntheta_max = 0.5\na_alpha = closed\n"
     "a_beta = unitary\na_gamma = closed\n", None,
     "theta grid [1.0, 0.5] must be ascending inside [0, pi/2]"),
    ("task = r-sweep\ntheta = 0\na_alpha = 1\na_beta = 1e6\na_gamma = closed\n"
     "R_min = 10\nR_max = 1\n", None, "R grid [10.0, 1.0] must be positive "
     "ascending"),
])
def test_config_error_is_typed_and_names_its_input(text, cli_task, message,
                                                   tmp_path, capsys):
    """Each refusal of parse_config: a ConfigError whose whole message
    names the line (or, for a rule across keys, the keys) at fault.  As a
    run file, the CLI exits 1 with that message as its one error line."""
    with pytest.raises(ConfigError) as err:
        parse_config(text, cli_task)
    assert str(err.value) == message
    if cli_task is None:
        cfg = tmp_path / "bad.run"
        cfg.write_text(text)
        task = text.split("\n", 1)[0].split(" = ")[1]
        assert main([task, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {message}"]
