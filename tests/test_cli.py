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
    # with no incomplete record every method is the sample mean, with its influence SE
    se = np.std([float(r.split(",")[1]) for r in rows[1:]]) / np.sqrt(200)
    for method in ("ipw", "ra", "mr", "cc"):
        out = tmp_path / f"{method}.json"
        code = run(["fit", "--data", str(path), "--x-cols", "x", "--l-cols", "l",
                    "--method", method, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["estimate"]["estimate"] - mean) <= 1e-10
        assert abs(report["influence"]["se"] - se) <= 1e-10
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


def run_cli(*argv):
    """`accmv` in a fresh interpreter, so that warnings and tracebacks reach stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "accmv.cli", *argv], capture_output=True, text=True, env=env)


ONE_COMPLETE = "inference error: self-normalized influence values need at least 2 complete records, got 1"


def test_complete_case_se_of_one_record_exits_5(tmp_path):
    # the SE of a mean of one value is undefined: a named inference error, not a
    # numpy warning followed by a floating-point fit error
    path = tmp_path / "one.csv"
    path.write_text("x,l\n1.0,2.0\n0.5,\n0.7,\n")
    proc = run_cli("fit", "--data", str(path), "--x-cols", "x", "--l-cols", "l", "--method", "cc")
    assert proc.returncode == 5
    assert ONE_COMPLETE in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("command", [["fit", "--method", "ipw", "--self-normalize"], ["sensitivity"]])
def test_self_normalized_interval_of_one_complete_record_exits_5(command, tmp_path):
    # the odds fit succeeds, but every influence value of a self-normalized mean
    # over one complete record is 0: an error, not an interval of zero width
    path = tmp_path / "one_big.csv"
    path.write_text("x,l\n0.05,1.5\n" + "".join(f"{(i * 37) % 61 - 30}.5,\n" for i in range(1, 61)))
    proc = run_cli(*command, "--data", str(path), "--x-cols", "x", "--l-cols", "l", "--n-min", "1")
    assert proc.returncode == 5, proc.stdout
    assert ONE_COMPLETE in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_one_complete_record_bootstrap_names_its_failures(tmp_path, capsys):
    # a resample without the complete record has an empty pool in every
    # pair; the message counts such replicates as the summaries do
    path = tmp_path / "one_big.csv"
    path.write_text("x,l\n0.05,1.5\n" + "".join(f"{(i * 37) % 61 - 30}.5,\n" for i in range(1, 61)))
    assert run(["sensitivity", "--data", str(path), "--x-cols", "x", "--l-cols", "l", "--n-min", "1",
                "--bootstrap", "4", "--seed", "1"]) == 5
    assert capsys.readouterr().err == (
        "inference error: bootstrap: 1 of 4 replicates failed (PositivityError 1), over the 20% allowed\n")


def test_complete_case_fit_has_no_small_stratum_warning(tmp_path, capsys):
    # the complete-case mean fits no model, so no stratum size limits it;
    # a method that fits one on the same strata is warned
    path = tmp_path / "few_complete.csv"
    path.write_text("x,l\n" + "".join(f"{i / 7:.3f},{i}.5\n" for i in range(3))
                    + "".join(f"{(i * 37) % 61 - 30}.5,\n" for i in range(1, 61)))
    argv = ["fit", "--data", str(path), "--x-cols", "x", "--l-cols", "l"]
    for method, warned in ((["cc"], False), (["ra", "--n-min", "2"], True)):
        out = tmp_path / "report.json"
        assert run([*argv, "--method", *method, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert ("warning: small stratum (r=1, a=0): case 60, pool 3" in stdout) is warned, stdout
        assert bool(json.loads(out.read_text())["warnings"]) is warned


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


def test_regress_method_is_one_of_the_estimators(mpm_csv, capsys):
    # mr is refused by the congeniality policy, an unknown name by the parser,
    # which no longer reports it as an incongenial outcome regression
    base = ["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3", "--response", "Y3",
            "--predictors", "Y2", "--method"]
    assert run([*base, "mr"]) == 2
    assert "marginal" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run([*base, "foo"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice: 'foo'" in err and "marginal" not in err


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
    report = json.loads(fit_out.read_text())
    sn, ci = report["estimate"]["estimate"], report["influence"]
    curve = read_curve(sens_out)
    assert abs(curve[0]["estimate"] - sn) <= 1e-12
    # the default sweep's interval is the fit's influence interval
    assert abs(curve[0]["ci_lo"] - ci["lower"]) <= 1e-12 and abs(curve[0]["ci_hi"] - ci["upper"]) <= 1e-12
    np.testing.assert_equal(curve, read_curve(sens_out))


def test_self_normalized_fit_prints_an_influence_se(single_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ipw", "--self-normalize",
                "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    ci = json.loads(out.read_text())["influence"]
    assert ci["method"] == "influence" and ci["lower"] < ci["estimate"] < ci["upper"]
    assert lines[1] == f"influence SE={ci['se']:.6g}  95% CI=({ci['lower']:.6g}, {ci['upper']:.6g})"


@pytest.mark.parametrize("extra,kind", [([], "influence"), (["--bootstrap", "8", "--seed", "1"], "bootstrap")])
def test_sensitivity_names_the_interval_method(extra, kind, single_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run(["sensitivity", "--data", single_csv, *DATA_ARGS, "--delta", "0.5", "--grid=-1,0,1",
                "--out", str(out), *extra]) == 0
    points = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  delta x")]
    assert len(points) == 3 and all(f"  {kind} CI=(" in line for line in points)
    assert all(r["ci_lo"] < r["estimate"] < r["ci_hi"] for r in read_curve(out))


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
    # verify-oracles leaves its sample size to the same design check
    assert run(["verify-oracles", "--design", "single", "--n-big", "0"]) == 2
    assert "n must be an integer >= 1, got 0" in capsys.readouterr().err


# One seeded replicate per table at n = 2000: (estimate, SE) of every row, as
# computed when each pair's designs were still rebuilt at every call site; the
# complete-case SEs of tables 1 and 2 are the self-normalized influence SEs.
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
        "complete_case": (0.729277816715434, 0.03394951253581919),
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
        "complete_case": (1.5374829222925606, 0.08928115616132465),
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


@pytest.mark.parametrize("level,label", [("0.58", "58%"), ("0.975", "97.5%"), ("0.95", "95%")])
def test_fit_labels_the_interval_with_its_level(level, label, single_csv, capsys):
    assert run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "ra", f"--level={level}"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("influence SE=") and f"  {label} CI=(" in line


def test_sensitivity_has_no_level_option(single_csv, tmp_path, capsys):
    argv = ["sensitivity", "--data", single_csv, *DATA_ARGS, "--grid=0,1"]
    with pytest.raises(SystemExit) as exc:          # argparse rejects the unknown flag
        run([*argv, "--level=1.5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 1.5}))
    assert run([*argv, "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_sensitivity_has_no_decompose_product_option(single_csv, tmp_path, capsys):
    # the sweep fits no outcome model, so neither the flag nor its config key exists there
    argv = ["sensitivity", "--data", single_csv, *DATA_ARGS, "--grid=0,1"]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--decompose-product"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decompose_product": True}))
    assert run([*argv, "--config", str(cfg)]) == 2
    assert "'decompose_product' does not match any option" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ra", "mr", "cc"])
def test_self_normalize_without_ipw_exits_2(method, single_csv, tmp_path, capsys):
    # self-normalizing divides the IPW sum by the weight total; no other method has one
    argv = ["fit", "--data", single_csv, *DATA_ARGS, "--method", method]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"self_normalize": True}))
    for extra in (["--self-normalize"], ["--config", str(cfg)]):
        assert run([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert "--self-normalize applies to --method ipw only" in captured.err and captured.out == ""


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


# The outputs below, as computed when every read of a fitted model checked
# its view: the sweep, regression and bootstrap paths, each to 1e-12.
SWEEP_ARGS = ["--x-cols", "Y1,Y2", "--l-cols", "Y3,Y4", "--delta", "0.5,-0.3", "--center", "1,0.5", "--grid=-1,0,1"]

# (estimate, ci_lo, ci_hi) per grid point of `accmv sensitivity` on the `multiple`
# CSV, by bootstrap count B: influence intervals at B = 0
GOLDEN_SWEEPS = {
    0: [(0.7283138952493753, 0.6466650235363984, 0.8099627669623521),
        (0.9241490232932363, 0.8542989063011589, 0.9939991402853138),
        (1.1223009340520125, 1.0360669057210488, 1.2085349623829762)],
    16: [(0.7283138952493753, 0.6604391476514756, 0.796188642847275),
         (0.9241490232932363, 0.8627116486857545, 0.9855863979007182),
         (1.1223009340520125, 1.0522673769137798, 1.1923344911902451)],
}


@pytest.mark.parametrize("B", sorted(GOLDEN_SWEEPS))
def test_sensitivity_golden(B, multiple_csv, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    boot = ["--bootstrap", str(B), "--seed", "1"] if B else []
    assert run(["sensitivity", "--data", multiple_csv, *SWEEP_ARGS, *boot, "--out", str(out)]) == 0
    capsys.readouterr()
    got = [(row["estimate"], row["ci_lo"], row["ci_hi"]) for row in read_curve(out)]
    np.testing.assert_allclose(got, GOLDEN_SWEEPS[B], rtol=0, atol=1e-12)


# (coef, estimate, SE) rows of `accmv regress` on the `mpm` CSV
GOLDEN_REGRESSIONS = {
    "linear": [("intercept", -0.9792012985616351, 0.02951776370830609),
               ("Y2", 0.4773194335761553, 0.04038734211391511)],
    "naive-sandwich": [("intercept", -0.9792012985616351, 0.03730160904190864),
                       ("Y2", 0.4773194335761553, 0.04135545883826752)],
    "gaussian": [("mu_Y2", 0.01877336555953203, 0.029914864387668796),
                 ("mu_Y3", -0.9702404063464415, 0.03033577421514),
                 ("c_11", -0.01422125459358818, 0.033933194256266966),
                 ("c_21", 0.47057939190715364, 0.0421607363439141),
                 ("c_22", -0.14129556320793124, 0.02887154080533381)],
}
REGRESSION_ARGS = {
    "linear": ["--response", "Y3", "--predictors", "Y2"],
    "naive-sandwich": ["--response", "Y3", "--predictors", "Y2", "--naive-sandwich"],
    "gaussian": ["--score-kind", "gaussian"],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_REGRESSIONS))
def test_regress_golden(kind, mpm_csv, tmp_path, capsys):
    out = tmp_path / "reg.json"
    assert run(["regress", "--data", mpm_csv, "--x-cols", "Y1", "--l-cols", "Y2,Y3", *REGRESSION_ARGS[kind],
                "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["coefficients"]
    want = GOLDEN_REGRESSIONS[kind]
    assert [row["coef"] for row in rows] == [coef for coef, *_ in want]
    np.testing.assert_allclose([(row["estimate"], row["se"]) for row in rows], [values for _, *values in want],
                               rtol=0, atol=1e-12)


def test_fit_bootstrap_golden(single_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "mr", "--bootstrap", "16", "--seed", "1",
                "--out", str(out)]) == 0
    capsys.readouterr()
    assert abs(json.loads(out.read_text())["bootstrap"]["se"] - 0.07993282839596064) <= 1e-12


def test_trailing_blank_lines_are_not_records(single_csv, tmp_path, capsys):
    padded = tmp_path / "padded.csv"
    with open(single_csv, "rb") as fh:
        padded.write_bytes(fh.read() + b"\r\n\r\n")
    estimates = []
    for data in (single_csv, str(padded)):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", data, *DATA_ARGS, "--method", "mr", "--out", str(out)]) == 0
        estimates.append(json.loads(out.read_text())["estimate"])
    capsys.readouterr()
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("flags,entries", [(["--n-min", "-5"], {}), (["--method", "cc"], {"n-min": -1})])
def test_negative_n_min_exits_2(flags, entries, single_csv, tmp_path, capsys):
    # a config entry is checked too, also for a method that fits no model
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    assert run(["fit", "--data", single_csv, *DATA_ARGS, *flags, "--config", str(cfg)]) == 2
    assert "config error: --n-min must be an integer >= 0" in capsys.readouterr().err


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


def test_repeated_header_column_exits_3(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    path.write_text("Y1,Y1,Y2,Y3\n1,5,2,NA\n2,6,3,3\n")
    assert run(["fit", "--data", str(path), *DATA_ARGS]) == 3
    assert "column 'Y1' repeated in header" in capsys.readouterr().err


def test_column_order_leaves_the_fit_report_unchanged(single_csv, tmp_path, capsys):
    # the schema names the columns, so their order in the file cannot matter
    with open(single_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    moved = tmp_path / "moved.csv"
    with open(moved, "w", newline="") as fh:
        csv.writer(fh).writerows([row[::-1] for row in rows])
    sections = []
    for path in (single_csv, moved):
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(path), *DATA_ARGS, "--method", "mr",
                    "--bootstrap", "8", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        sections.append([json.dumps(report[k], sort_keys=True) for k in ("estimate", "influence", "bootstrap")])
    assert sections[0] == sections[1]


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


def test_fit_bootstrap_fits_the_full_data_once(single_csv, monkeypatch, capsys):
    # the bootstrap takes the point estimate the command already holds
    import accmv.cli

    full_data = []
    inner = accmv.cli.fit_all_odds

    def counted(ds, strata, **kwargs):
        full_data.append(strata.freq is None)
        return inner(ds, strata, **kwargs)

    monkeypatch.setattr(accmv.cli, "fit_all_odds", counted)
    assert run(["fit", "--data", single_csv, *DATA_ARGS, "--method", "mr", "--bootstrap", "4", "--seed", "1"]) == 0
    assert sum(full_data) == 1 and len(full_data) == 5


@pytest.fixture(scope="module")
def thin_stratum_csv(tmp_path_factory):
    """200 records whose one incomplete stratum holds 10, the least an odds
    fit takes: a resample that draws fewer fails with SmallStratumError."""
    rng = np.random.default_rng(0)
    X, L = rng.standard_normal((200, 1)), rng.standard_normal((200, 1))
    L[:10] = np.nan
    path = tmp_path_factory.mktemp("thin") / "thin.csv"
    write_csv(path, Dataset(X, L, ("X1",), ("L1",)))
    return str(path)


@pytest.mark.parametrize("command", [
    ["fit", "--method", "ipw"],
    ["sensitivity", "--delta", "0.5"],
], ids=lambda c: c[0])
def test_too_many_failed_replicates_exit_5(command, thin_stratum_csv, capsys):
    assert run([*command, "--data", thin_stratum_csv, "--x-cols", "X1", "--l-cols", "L1",
                "--bootstrap", "20", "--seed", "1"]) == 5
    captured = capsys.readouterr()
    # the summaries' wording, not a dict
    assert ("inference error: bootstrap: 5 of 20 replicates failed (SmallStratumError 5), over the 20% allowed\n"
            == captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("table", [1, 3])
def test_dump_replicates_reads_back_as_raw(table, tmp_path, capsys):
    path = tmp_path / "dump.csv"
    assert run(["table", "--table", str(table), "--replicates", "3", "--n", "2000", "--seed", "4",
                "--workers", "1", "--dump-replicates", str(path)]) == 0
    with open(path, newline="") as fh:
        back = [(int(r["replicate"]), r["method"], int(r["coef"]), float(r["estimate"]), float(r["se"]))
                for r in csv.DictReader(fh)]
    raw = run_table(table, 3, 2000, 4, workers=1)["raw"]
    expected = [(i, name, j, e, s)
                for i, rep in enumerate(raw)
                for name, (est, se) in rep.items()
                for j, (e, s) in enumerate(zip(np.atleast_1d(est).tolist(), np.atleast_1d(se).tolist()))]
    assert back == expected
    assert max(row[2] for row in back) == (1 if table == 3 else 0)


class RecordingContext:
    """A multiprocessing context whose pool records the size it is asked
    for and runs its work in this process, so no process is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args, chunksize=1):
        return [fn(*a) for a in args]


@pytest.mark.parametrize("workers,replicates,size", [(5000, 8, 3), (0, 8, 3), (2, 8, 2), (5000, 2, 2)])
def test_run_table_caps_workers_at_the_cpu_count(workers, replicates, size, monkeypatch):
    import accmv.inference

    ctx = RecordingContext()
    monkeypatch.setattr(accmv.inference.mp, "get_context", lambda method: ctx)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pooled = run_table(1, replicates, 300, seed=5, workers=workers)["raw"]
    assert ctx.sizes == [size]
    serial = run_table(1, replicates, 300, seed=5, workers=1)["raw"]
    assert ctx.sizes == [size]                     # one worker runs serially, with no pool
    assert repr(pooled) == repr(serial)


EXHAUSTED = """
import sys
import accmv.cli

def exhausted(*args, **kwargs):
    raise MemoryError

accmv.cli.generate = exhausted
sys.exit(accmv.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    ["simulate", "--design", "single", "--n", "200", "--seed", "1", "--out", "never.csv"],
    ["table", "--table", "1", "--replicates", "2", "--n", "300", "--seed", "1", "--workers", "1"],
], ids=lambda c: c[0])
def test_memory_error_exits_2_without_a_traceback(command, tmp_path):
    # a step that cannot get its memory, in a process of its own so that
    # stderr is the interpreter's
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", EXHAUSTED, *command], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: out of memory") and "Traceback" not in proc.stderr, proc.stderr
    assert not (tmp_path / "never.csv").exists()
