import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from accmv.cli import main, run_table, table_replicate
from accmv.data import Dataset, Schema, load_csv, write_csv
from accmv.errors import ConfigError, FitError


def run(argv):
    return main(argv)


def read_curve(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def single_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "single.csv"
    assert run(["simulate", "--design", "single", "--n", "2000", "--seed", "11", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def mpm_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "mpm.csv"
    assert run(["simulate", "--design", "mpm", "--n", "4000", "--seed", "12", "--out", str(path)]) == 0
    return str(path)


DATA_ARGS = ["--x-cols", "Y1,Y2", "--l-cols", "Y3"]


def test_simulate_roundtrips(single_csv):
    ds = load_csv(single_csv, Schema(("Y1", "Y2"), ("Y3",)))
    assert ds.n == 2000 and ds.p == 2 and ds.d == 1


def test_fit_ra_end_to_end(single_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    est = report["estimate"]["estimate"]
    se = report["influence"]["se"]
    assert abs(est - 89.0 / 96.0) <= 3 * se


def test_fit_complete_data_any_method(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "complete.csv"
    rows = ["x,l"] + [f"{rng.standard_normal():.6f},{v:.6f}" for v in rng.standard_normal(200)]
    path.write_text("\n".join(rows) + "\n")
    mean = np.mean([float(r.split(",")[1]) for r in rows[1:]])
    sd = np.std([float(r.split(",")[1]) for r in rows[1:]], ddof=1) / np.sqrt(200)
    for method in ("ipw", "ra", "mr", "cc"):
        out = tmp_path / f"{method}.json"
        code = run(["fit", "--data", str(path), "--x-cols", "x", "--l-cols", "l",
                    "--method", method, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["estimate"]["estimate"] - mean) <= 1e-10
        if method == "cc":
            assert abs(report["influence"]["se"] - sd) <= 1e-10
    capsys.readouterr()


def test_fit_small_stratum_exits_4(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    rows = ["x,l"]
    rng = np.random.default_rng(5)
    for i in range(12):
        rows.append(f"{rng.standard_normal():.4f},{rng.standard_normal():.4f}")
    rows.append(f"{rng.standard_normal():.4f},")     # one incomplete record only
    path.write_text("\n".join(rows) + "\n")
    code = run(["fit", "--data", str(path), "--x-cols", "x", "--l-cols", "l", "--method", "mr"])
    err = capsys.readouterr().err
    assert code == 4
    assert "r=1" in err and "a=0" in err


def test_fit_missing_file_exits_3(capsys):
    assert run(["fit", "--data", "/no/such/file.csv", *DATA_ARGS]) == 3
    assert "data error" in capsys.readouterr().err


def test_fit_bad_functional_exits_2(single_csv, capsys):
    code = run(["fit", "--data", single_csv, *DATA_ARGS, "--functional", "threshold",
                "--coords", "1", "--thresholds", "1,2"])
    assert code == 2
    capsys.readouterr()


def test_regress_mpm(mpm_csv, tmp_path, capsys):
    out = tmp_path / "reg.json"
    code = run(["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                "--response", "Y3", "--predictors", "Y2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    table = json.loads(out.read_text())["coefficients"]
    est = {row["coef"]: row for row in table}
    assert abs(est["intercept"]["estimate"] + 1.0) <= 5 * est["intercept"]["se"]
    assert abs(est["Y2"]["estimate"] - 0.5) <= 5 * est["Y2"]["se"]


def test_regress_complete_is_ols(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "c.csv"
    x = rng.standard_normal(150)
    l1 = rng.standard_normal(150)
    l2 = 1.0 + 0.5 * l1 + rng.standard_normal(150)
    path.write_text("x,l1,l2\n" + "\n".join(f"{a:.8f},{b:.8f},{c:.8f}" for a, b, c in zip(x, l1, l2)) + "\n")
    out = tmp_path / "r.json"
    assert run(["regress", "--data", str(path), "--x-cols", "x", "--l-cols", "l1,l2",
                "--response", "l2", "--predictors", "l1", "--out", str(out)]) == 0
    capsys.readouterr()
    got = [row["estimate"] for row in json.loads(out.read_text())["coefficients"]]
    Z = np.column_stack([np.ones(150), l1])
    ols = np.linalg.solve(Z.T @ Z, Z.T @ l2)
    np.testing.assert_allclose(got, ols, atol=1e-10)


def test_regress_gaussian_score(mpm_csv, tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                "--score-kind", "gaussian", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    table = json.loads(out.read_text())["coefficients"]
    est = {row["coef"]: row["estimate"] for row in table}
    assert set(est) == {"mu_Y2", "mu_Y3", "c_11", "c_21", "c_22"}
    # weighted means of the primaries sit near the population values (0, -1)
    assert abs(est["mu_Y2"] - 0.0) <= 0.15 and abs(est["mu_Y3"] + 1.0) <= 0.15


@pytest.mark.parametrize("kind", ["linear", "gaussian"])
def test_regress_in_other_units(kind, mpm_csv, tmp_path, capsys):
    # the root check is relative to the size of the score terms and the odds
    # fits' separation check reads the linear predictor, not the size of the
    # coefficients, so the primaries in units 1e4 times smaller or 1e3 times
    # larger fit to the same model in those units
    ds = load_csv(mpm_csv, Schema(("Y1",), ("Y2", "Y3")))
    model = ["--response", "Y3", "--predictors", "Y2"] if kind == "linear" else []

    def fit(path):
        out = tmp_path / "r.json"
        assert run(["regress", "--data", str(path), "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                    "--score-kind", kind, *model, "--out", str(out)]) == 0
        table = json.loads(out.read_text())["coefficients"]
        # the diagonal of the gaussian covariance factor is estimated as its log
        return {row["coef"]: np.exp(row["estimate"]) if row["coef"] in ("c_11", "c_22")
                else row["estimate"] for row in table}

    unit = fit(mpm_csv)
    for c in (1e4, 1e-3):
        scaled = tmp_path / "scaled.csv"
        write_csv(scaled, Dataset(ds.X, c * ds.L, ds.x_names, ds.l_names))
        got = fit(scaled)
        assert got.keys() == unit.keys()
        for name, value in unit.items():
            want = value if name == "Y2" else c * value     # the slope has no units
            assert abs(got[name] - want) <= 1e-9 * abs(want), (c, name)
    capsys.readouterr()


def test_regress_congeniality_exits_2(mpm_csv, capsys):
    code = run(["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                "--response", "Y3", "--predictors", "Y2", "--method", "ra"])
    assert code == 2
    assert "marginal" in capsys.readouterr().err


def test_table_single_replicate(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run(["table", "--table", "1", "--replicates", "1", "--n", "2000",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10      # header + 9 method rows
    for line in lines[1:]:
        coverage = float(line.rsplit(",", 1)[1])
        assert coverage in (0.0, 1.0)


def test_table_determinism():
    a = run_table(1, 4, 500, seed=77, workers=1)
    b = run_table(1, 4, 500, seed=77, workers=2)
    for ra, rb in zip(a["rows"], b["rows"]):
        assert ra == rb


def test_sensitivity_matches_self_normalized_fit(single_csv, tmp_path, capsys):
    fit_out = tmp_path / "fit.json"
    run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ipw", "--self-normalize",
         "--out", str(fit_out)])
    sens_out = tmp_path / "curve.csv"
    code = run(["sensitivity", "--data", single_csv, *DATA_ARGS, "--delta", "1.0",
                "--grid", "0", "--out", str(sens_out)])
    assert code == 0
    capsys.readouterr()
    sn = json.loads(fit_out.read_text())["estimate"]["estimate"]
    curve = read_curve(sens_out)
    assert abs(curve[0]["estimate"] - sn) <= 1e-12
    # reload is lossless (NaN CI fields compare equal under assert_equal)
    np.testing.assert_equal(curve, read_curve(sens_out))


def test_config_overrides_flags(single_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "cc"}))
    out = tmp_path / "o.json"
    code = run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra",
                "--config", str(cfg), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["estimate"]["method"] == "complete_case"
    cfg.write_text(json.dumps({"no-such-key": 1}))
    assert run(["fit", "--data", single_csv, *DATA_ARGS, "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_fit_deterministic_given_seed(single_csv, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra",
             "--bootstrap", "25", "--seed", "9", "--out", str(out)])
        report = json.loads(out.read_text())
        report["config"].pop("out")      # the only run-specific field
        outs.append(report)
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_verify_oracles_cli(capsys):
    assert run(["verify-oracles", "--design", "single", "--n-big", "100000", "--seed", "4"]) == 0
    assert "ok" in capsys.readouterr().out


def test_run_table_validation():
    with pytest.raises(ConfigError):
        run_table(4, 1, 100, 0)
    with pytest.raises(ConfigError):
        run_table(1, 0, 100, 0)
    with pytest.raises(ConfigError, match="n must be"):
        run_table(1, 2, 0, 0, workers=1)


def test_table_bad_n_exits_2(capsys):
    # the design is checked once, before any replicate runs
    assert run(["table", "--table", "1", "--replicates", "2", "--n", "0", "--seed", "1", "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "replicates failed" not in err


# One seeded replicate per table at n = 2000: (estimate, SE) of every row, as
# computed when each pair's designs were still rebuilt at every call site.
GOLDEN_REPLICATES = {
    1: {
        "ipw": (0.9352541098259984, 0.1942018698192057),
        "ipw_wrong": (0.9076350760843674, 0.19387846521436142),
        "ra": (0.8781935572379991, 0.042423183733435996),
        "ra_wrong": (0.92178475471347, 0.04370938166190159),
        "mr": (0.9481556520762889, 0.08897354844473078),
        "mr_ipw_wrong": (0.9583846007325867, 0.08918628941385283),
        "mr_ra_wrong": (0.9720420005890674, 0.08919167626182169),
        "mr_both_wrong": (1.0019757982080577, 0.08885609648504032),
        "complete_case": (0.729277816715434, 0.03396608540111472),
    },
    2: {
        "ipw": (1.3613835113859463, 0.07020369045629955),
        "ipw_wrong": (1.45318522725106, 0.07405593116557685),
        "ra": (1.365431307221462, 0.061896174551720716),
        "ra_wrong": (1.3190177587035292, 0.06092598199296164),
        "mr": (1.3756272023676894, 0.06332160990495535),
        "mr_ipw_wrong": (1.369757600350471, 0.06249460930417329),
        "mr_ra_wrong": (1.3742109902002873, 0.0651121456858293),
        "mr_both_wrong": (1.3813048377827504, 0.06431494926236529),
        "complete_case": (1.5374829222925606, 0.08937372348132723),
    },
    3: {
        "ipw": ([-0.9871162968229462, 0.5614309268339748], [0.04053401878049083, 0.05045767682005974]),
        "complete_case": ([-1.021431976395845, 0.5472559278554014], [0.04164637019037957, 0.03954028382014093]),
    },
}


@pytest.mark.parametrize("table", [1, 2, 3])
def test_table_replicate_golden(table):
    got = table_replicate(table, 2000, 9000 + table)
    want = GOLDEN_REPLICATES[table]
    assert list(got) == list(want)
    for name, (est, se) in want.items():
        np.testing.assert_allclose(got[name][0], est, rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(got[name][1], se, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("level", ["1.5", "0", "-0.2", "1"])
def test_level_outside_unit_interval_exits_2(single_csv, mpm_csv, level, capsys):
    commands = [
        ["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra"],
        ["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3",
         "--response", "Y3", "--predictors", "Y2"],
    ]
    for argv in commands:
        assert run([*argv, f"--level={level}"]) == 2
        err = capsys.readouterr().err
        assert "confidence level must be in (0, 1)" in err


def test_sensitivity_has_no_level_option(single_csv, tmp_path, capsys):
    argv = ["sensitivity", "--data", single_csv, *DATA_ARGS, "--grid=0,1"]
    with pytest.raises(SystemExit) as exc:          # argparse rejects the unknown flag
        run([*argv, "--level=1.5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 1.5}))
    assert run([*argv, "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_level_from_config_is_checked(single_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in (1.5, "0.9", None):
        cfg.write_text(json.dumps({"level": bad}))
        assert run(["fit", "--data", single_csv, *DATA_ARGS, "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def multiple_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "multiple.csv"
    assert run(["simulate", "--design", "multiple", "--n", "2000", "--seed", "13", "--out", str(path)]) == 0
    return str(path)


MULTIPLE_ARGS = ["--x-cols", "Y1,Y2", "--l-cols", "Y3,Y4", "--functional", "product",
                 "--coords", "1,2", "--decompose-product"]

# (estimate, influence SE) of `accmv fit`, as computed when each estimator and
# its influence function walked the pattern pairs separately.
GOLDEN_FITS = {
    ("single", "ipw"): (1.0312763056709116, 0.16933168046836883),
    ("single", "ra"): (0.9719525697236958, 0.041607112222743395),
    ("single", "mr"): (0.841989209548722, 0.07356132403998528),
    ("multiple", "ipw"): (1.4900537453144609, 0.07896177262260784),
    ("multiple", "ra"): (1.4661407649412463, 0.06769841963087064),
    ("multiple", "mr"): (1.4752660498087136, 0.06833853726619243),
}


@pytest.mark.parametrize("design,method", sorted(GOLDEN_FITS))
def test_fit_golden(design, method, single_csv, multiple_csv, tmp_path, capsys):
    argv = ["--data", single_csv, *DATA_ARGS] if design == "single" else ["--data", multiple_csv, *MULTIPLE_ARGS]
    out = tmp_path / "fit.json"
    assert run(["fit", *argv, "--method", method, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    est, se = GOLDEN_FITS[(design, method)]
    assert abs(report["estimate"]["estimate"] - est) <= 1e-12
    assert abs(report["influence"]["se"] - se) <= 1e-12


def test_config_strings_go_through_option_converters(single_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "o.json"

    def fit_with(entries, *flags):
        cfg.write_text(json.dumps(entries))
        return run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra", *flags,
                    "--config", str(cfg), "--out", str(out)])

    assert fit_with({}, "--coords", "1") == 0
    want = json.loads(out.read_text())["estimate"]["estimate"]
    for coords in ("1", [1]):
        assert fit_with({"coords": coords}) == 0
        report = json.loads(out.read_text())
        assert report["config"]["coords"] == [1]
        assert report["estimate"]["estimate"] == want
    assert fit_with({"coords": "1,2"}) == 2          # converted, then out of range for d=1
    assert "out of range" in capsys.readouterr().err
    for bad in ({"coords": "1,x"}, {"coords": 1}, {"coords": ["1"]}, {"thresholds": [True]}):
        assert fit_with(bad) == 2
        assert "config key" in capsys.readouterr().err
    assert fit_with({"n_min": 10}) == 0
    for bad in ({"n_min": "10"}, {"n_min": 10.5}, {"n_min": True}, {"method": "xx"},
                {"decompose_product": "yes"}, {"func": "cmd_fit"}):
        assert fit_with(bad) == 2
        err = capsys.readouterr().err
        assert "config" in err and "Traceback" not in err


@pytest.mark.parametrize("roles", [
    ["--x-cols", "Y1,Y3", "--l-cols", "Y3"],     # one column in both roles
    ["--x-cols", "Y1,Y2", "--l-cols", "Y3,Y3"],  # repeated primary
    ["--x-cols", "Y1,Y1", "--l-cols", "Y3"],     # repeated auxiliary
])
def test_overlapping_role_columns_exit_2(single_csv, roles, capsys):
    assert run(["fit", "--data", single_csv, *roles]) == 2
    assert "more than once" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        Schema(*(tuple(roles[i].split(",")) for i in (1, 3)))


@pytest.mark.parametrize("table", [1, 2, 3])
def test_run_table_workers_give_identical_raw(table):
    # replicate i always draws from stream i, whichever process runs it
    serial = run_table(table, 4, 500, seed=5, workers=1)["raw"]
    forked = run_table(table, 4, 500, seed=5, workers=2)["raw"]
    assert [r is None for r in serial] == [r is None for r in forked]
    for a, b in zip(serial, forked):
        if a is not None:
            assert a.keys() == b.keys()
            for name in a:
                for x, y in zip(a[name], b[name]):
                    np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("workers", [1, 2])
def test_table_reports_why_replicates_failed(workers, capsys):
    # at n=100 some table-1 replicates leave a stratum below n_min or separable
    result = run_table(1, 8, 100, seed=2, workers=workers)
    assert result["failures"] == {"SeparationError": 1, "SmallStratumError": 4}
    assert result["n_failed"] == sum(result["failures"].values())
    assert sum(r is None for r in result["raw"]) == result["n_failed"]
    assert run(["table", "--table", "1", "--replicates", "8", "--n", "100", "--seed", "2",
                "--workers", str(workers)]) == 0
    assert "5 of 8 replicates failed (SeparationError 1, SmallStratumError 4)" in capsys.readouterr().out
    with pytest.raises(FitError, match=r"8 of 8 replicates failed \(SmallStratumError 8\)"):
        run_table(1, 8, 80, seed=2, workers=workers)


@pytest.mark.parametrize("command", [
    ["simulate", "--design", "single", "--n", "200", "--seed", "1", "--out"],
    ["fit", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--out"],
    ["regress", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--score-kind", "gaussian", "--out"],
    ["sensitivity", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--out"],
    ["table", "--table", "1", "--replicates", "1", "--n", "500", "--seed", "3", "--out"],
    ["table", "--table", "1", "--replicates", "1", "--n", "500", "--seed", "3", "--dump-replicates"],
    ["verify-oracles", "--design", "single", "--n-big", "100000", "--out"],
])
def test_unwritable_output_exits_3(command, single_csv, tmp_path, capsys):
    target = str(tmp_path / "no-such-dir" / "out")
    data = ["--data", single_csv] if command[0] in ("fit", "regress", "sensitivity") else []
    assert run([*command, target, *data]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and target in err


def test_unreadable_config_exits_2(single_csv, tmp_path, capsys):
    for config in (tmp_path, tmp_path / "missing.json"):      # a directory, then no file
        assert run(["fit", "--data", single_csv, *DATA_ARGS, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err


def test_negative_seed_exits_2(single_csv, tmp_path, capsys):
    for command in (
        ["simulate", "--design", "single", "--seed", "-1", "--out", str(tmp_path / "s.csv")],
        ["table", "--table", "1", "--replicates", "2", "--seed", "-1"],
        ["verify-oracles", "--design", "single", "--seed", "-1"],
        ["fit", "--data", single_csv, *DATA_ARGS, "--bootstrap", "5", "--seed", "-1"],
        ["sensitivity", "--data", single_csv, *DATA_ARGS, "--bootstrap", "5", "--seed", "-1"],
    ):
        assert run(command) == 2, command
        assert "seed" in capsys.readouterr().err


def test_overflowing_values_exit_4(single_csv, tmp_path, capsys):
    # a finite cell whose square overflows stops the run with a named error
    with open(single_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][0] = "1e200"
    path = tmp_path / "huge.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run(["fit", "--data", str(path), *DATA_ARGS, "--method", "ipw"]) == 4
    assert "floating-point overflow" in capsys.readouterr().err


def test_undecodable_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"Y1,Y2,Y3\n1,2,3\n\xff\xfe,1,2\n")
    assert run(["fit", "--data", str(path), *DATA_ARGS]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("bootstrap", ["1", "-3"])
def test_sensitivity_bootstrap_count_below_two_exits_2(bootstrap, single_csv, capsys):
    assert run(["sensitivity", "--data", single_csv, *DATA_ARGS, "--delta", "0.5",
                f"--bootstrap={bootstrap}"]) == 2
    captured = capsys.readouterr()
    assert "needs B >= 2" in captured.err and captured.out == ""


def test_regress_names_the_model_by_column(mpm_csv, capsys):
    assert run(["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3",
                "--response", "Y3", "--predictors", "Y2"]) == 0
    assert "marginal parametric model (Y3 ~ Y2)" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["fit", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--method", "mr"],
    ["regress", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--score-kind", "gaussian"],
    ["sensitivity", "--x-cols", "Y1,Y2", "--l-cols", "Y3", "--delta", "0.5", "--grid=-1,0,1"],
    ["table", "--table", "1", "--replicates", "1", "--n", "500", "--seed", "3", "--workers", "1"],
], ids=lambda c: c[0])
def test_closed_stdout_ends_quietly_after_writing_out(command, single_csv, tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    data = ["--data", single_csv] if command[0] != "table" else []
    with subprocess.Popen([sys.executable, "-m", "accmv.cli", *command, *data, "--out", str(out)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()          # the reader goes away before anything is printed
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Error" not in err, err
    assert out.stat().st_size > 0
