"""Property tests: whatever the CSV cells and the --config JSON hold, the CLI
ends with a documented exit code and no exception escapes `main()`; a
non-finite value of a float option is a configuration error."""

import csv
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from accmv.cli import _LIST_ITEMS, build_parser, main
from accmv.data import write_csv
from accmv.simgen import SimDesign, generate

EXIT_CODES = {0, 2, 3, 4, 5}
COMMANDS = {
    "fit": [],
    "regress": ["--response", "Y3", "--predictors", "Y2"],
    "sensitivity": ["--grid=-1,0,1"],
}
PATH_KEYS = {"data", "config", "out"}       # file locations, not options under test


def options(command):
    """The options of `command` a config file may set, by config key."""
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {a.dest: a for a in sub._actions if a.option_strings and a.dest not in PATH_KEYS | {"help"}}


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.csv"
    write_csv(path, generate(SimDesign("mpm", 300, 7)))
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", "NA", " NA ", "inf", "-inf", "nan", "NaN", "Infinity", "1e999", "1,5", "--"]),
    st.text(max_size=4),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(),
    st.sampled_from(["", "1", "2,1", "0.9", "-1", "Y1", "Y2", "Y3", "Y2,Y3", "NA", "ipw", "mr", "ra",
                     "cc", "product", "threshold", "mean", "coordinate", "gaussian", "linear"]),
)
config_values = st.one_of(scalars, st.lists(scalars, max_size=3))


def typed_values(action):
    """Values of the type the option takes, so that more configs get past
    the type checks to the fitting."""
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.nargs == 0:
        return st.booleans()
    if action.type in (int, float):
        return st.integers(-2, 12) if action.type is int else st.floats(0, 1) | st.floats()
    items = {str: st.sampled_from(["Y1", "Y2", "Y3", "NA", ""]), int: st.integers(-2, 4), float: st.floats()}
    if action.type is None:
        return items[str]
    return st.lists(items[_LIST_ITEMS[action.type]], max_size=3)


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    edits = draw(st.lists(st.tuples(st.integers(1, 300), st.integers(0, 2), cells), max_size=6))
    short = draw(st.lists(st.tuples(st.integers(1, 300), st.integers(0, 2)), max_size=2))
    known = options(command)
    keys = draw(st.lists(st.sampled_from(sorted(known)), max_size=3, unique=True))
    # most values have the option's own type; the rest are any JSON value
    config = {k: draw(typed_values(known[k]) if draw(st.integers(0, 3)) else config_values) for k in keys}
    if draw(st.sampled_from([False] * 9 + [True])):
        config[draw(st.sampled_from(["bogus", "func"]))] = draw(config_values)
    return command, edits, short, config


# derandomized, so every run tries the same 300 inputs
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_inputs())
def test_cli_exit_codes_under_fuzzed_inputs(base_rows, tmp_path, capsys, inputs):
    command, edits, short, config = inputs
    rows = [list(r) for r in base_rows]
    for i, j, cell in edits:
        rows[i][j] = cell
    for i, keep in short:
        rows[i] = rows[i][:keep]
    data, cfg = tmp_path / "data.csv", tmp_path / "config.json"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    cfg.write_text(json.dumps(config))
    code = main([command, "--data", str(data), "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                 *COMMANDS[command], "--config", str(cfg)])
    capsys.readouterr()
    assert code in EXIT_CODES


# float list options and the command that takes each;
# `thresholds` gets one coordinate per value
FLOAT_OPTIONS = {"delta": "sensitivity", "center": "sensitivity", "grid": "sensitivity", "thresholds": "fit"}


@st.composite
def non_finite_options(draw):
    key = draw(st.sampled_from(sorted(FLOAT_OPTIONS)))
    values = draw(st.lists(st.floats(-5, 5), max_size=1))
    values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    how = draw(st.sampled_from(["flag", "config list", "config string"]))
    return key, values, how


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(non_finite_options())
def test_non_finite_float_options_exit_2(base_rows, tmp_path, capsys, inputs):
    key, values, how = inputs
    data, cfg = tmp_path / "data.csv", tmp_path / "config.json"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(base_rows)
    command = FLOAT_OPTIONS[key]
    argv = [command, "--data", str(data), "--x-cols", "Y1", "--l-cols", "Y2,Y3"]
    if key == "thresholds":
        argv += ["--functional", "threshold", "--coords", ",".join(str(j + 1) for j in range(len(values)))]
    text = ",".join(repr(v) for v in values)
    if how == "flag":
        argv.append(f"--{key}={text}")
    else:
        cfg.write_text(json.dumps({key: values if how == "config list" else text}))   # bare NaN, Infinity
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err
