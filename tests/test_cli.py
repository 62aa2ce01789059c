import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import shumfit.methods as methods
from shumfit import cli, fit_naive
from shumfit.errors import ShumFitError


def write_dataset(path, n_per_cat=10, d=2, gap=2.5, seed=0, negative=False):
    rng = np.random.default_rng(seed)
    names = [f"m{k + 1}" for k in range(d)]
    with open(path, "w") as fh:
        fh.write("outcome," + ",".join(names) + "\n")
        for label in range(3):
            shift = -10.0 if negative else gap * label + 5.0
            for _ in range(n_per_cat):
                row = rng.normal(shift, 0.5, size=d)
                fh.write(f"{label}," + ",".join(repr(float(v)) for v in row) + "\n")
    return names


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_fit_end_to_end(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    out = tmp_path / "out"
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "empirical,naive,minmax",
        "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "coefficients (unit norm)" in captured.out
    assert "baseline 1/M! = 0.1667" in captured.out
    assert "minmax: max + (" in captured.out

    payload = json.loads(read(out / "fit_report.json"))
    manifest = json.loads(read(out / "manifest.json"))
    assert payload["manifest_hash"] == manifest["manifest_hash"]
    assert set(payload["reports"]) == {"empirical", "naive", "minmax"}
    emp = payload["reports"]["empirical"]
    assert emp["ehum"] > 0.9  # well-separated design
    assert len(emp["coefficients"]) == 2
    timings = json.loads(read(out / "timings.json"))
    assert timings["command"][0] == "fit"


def test_fit_timings_hold_the_wall_time_of_the_fit(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "minmax,naive", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    timings = json.loads(read(out / "timings.json"))
    assert 0.0 <= timings["wall_clock_s"] <= elapsed


def test_fit_csv_format_and_hash_line(tmp_path):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    out = tmp_path / "out"
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "naive,minmax",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = read(out / "fit_report.csv").decode().splitlines()
    # minmax coefficients act on the derived (max, min) features
    assert [ln.split(",")[1] for ln in lines if ln.startswith("minmax,")] == [
        "max", "min", "ehum"]
    manifest = json.loads(read(out / "manifest.json"))
    assert lines[0] == f"# manifest_hash={manifest['manifest_hash']}"
    assert lines[1] == "method,quantity,value"
    naive_rows = [ln for ln in lines if ln.startswith("naive,m1,")]
    assert naive_rows and naive_rows[0].endswith("0.7071")


def test_fit_missing_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,nosuch", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_hum_column_named_twice_in_the_header_exits_2(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("stage,m1,m2,m1\n0,1,5,3\n1,2,4,2\n2,3,3,1\n")
    code = cli.main([
        "hum", "--data", str(csv), "--outcome", "stage", "--markers", "m1",
        "--weights", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "'m1' 2 times" in capsys.readouterr().err


def test_fit_unknown_method_exits_2(tmp_path):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "empirical,logit",
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["fit", "simulate"])
@pytest.mark.parametrize("token", [",", "naive,naive"])
def test_empty_or_repeated_methods_exit_2_before_any_fit(tmp_path, capsys, monkeypatch,
                                                        command, token):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setattr(cli, "fit_method", None)  # any fit would raise TypeError
    monkeypatch.setattr(cli, "run_study", None)
    out = tmp_path / "o"
    args = {"fit": ["fit", "--data", str(csv), "--outcome", "outcome", "--markers", "m1,m2"],
            "simulate": ["simulate", "--scenario", "1", "--n", "5,5,5", "--reps", "2",
                         "--workers", "1"]}[command]
    assert cli.main(args + ["--methods", token, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --methods")
    assert not out.exists()


def test_fit_bad_lambda_exits_2(tmp_path):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--lambda", "wide",
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [  # the flag under test comes last
    ["fit", "--methods", "sshum", "--lambda", "nan"],
    ["fit", "--methods", "sshum", "--lambda", "inf"],
    ["fit", "--methods", "sshum", "--lambda", "0"],
    ["fit", "--methods", "sshum", "--lambda", "-1"],
    ["fit", "--methods", "naive", "--bootstrap", "2", "--seed", "-1"],
    ["hum", "--weights", "nan,1"],
])
def test_non_finite_or_out_of_range_flags_exit_2_before_any_fit(tmp_path, capsys,
                                                               monkeypatch, argv):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setattr(cli, "fit_method", None)  # any fit would raise TypeError
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    out = tmp_path / "o"
    code = cli.main(argv + ["--data", str(csv), "--outcome", "outcome",
                            "--markers", "m1,m2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "hum"])
def test_unreadable_csv_or_repeated_markers_exit_2(tmp_path, capsys, command):
    latin = tmp_path / "latin1.csv"
    latin.write_bytes("outcome,m1,m2,note\n0,1,2,café\n1,2,3,x\n".encode("latin-1"))
    good = tmp_path / "data.csv"
    write_dataset(good)
    extra = ["--weights", "1,1"] if command == "hum" else ["--methods", "naive"]
    for data, markers in [(latin, "m1,m2"), (good, "m1,m1"), (good, "outcome,m1")]:
        code = cli.main([command, "--data", str(data), "--outcome", "outcome",
                         "--markers", markers] + extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_fit_failure_exits_3(tmp_path, capsys):
    csv = tmp_path / "tiny.csv"
    write_dataset(csv, n_per_cat=1)
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "parametric",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "parametric" in capsys.readouterr().err


@pytest.mark.parametrize("B", ["1", "-3"])
def test_fit_bootstrap_below_two_exits_2_before_any_fit(tmp_path, capsys, monkeypatch, B):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setattr(cli, "fit_method", None)  # any fit would raise TypeError
    out = tmp_path / "o"
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "naive", "--bootstrap", B,
        "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --bootstrap")
    assert not out.exists()


def test_fit_bootstrap_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    calls = {"n": 0}

    def flaky(d, cfg):
        calls["n"] += 1
        if calls["n"] > 1:  # the point fit is call 1; every resample fails
            raise ShumFitError("injected")
        return fit_naive(d)

    monkeypatch.setitem(methods.METHODS, "naive",
                        dataclasses.replace(methods.METHODS["naive"], fit=flaky))
    out = tmp_path / "o"
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "minmax,naive", "--bootstrap", "5",
        "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "error: bootstrap failed: naive:" in err
    assert not (out / "fit_report.json").exists()


def test_fit_lambda_rule_note_on_auto(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    code = cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--methods", "sshum,nshum,empirical",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "lambda rule check (sshum)" in err
    assert "lambda rule check (nshum)" in err
    assert "lambda rule check (empirical)" not in err


def test_log_transform_rejects_nonpositive(tmp_path):
    csv = tmp_path / "neg.csv"
    write_dataset(csv, negative=True)
    code = cli.main([
        "hum", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--weights", "1,1", "--log-transform",
    ])
    assert code == 2


def test_hum_command_output(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    out = tmp_path / "out"
    code = cli.main([
        "hum", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--weights", "1.0,0.5", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "combined ehum:" in text
    assert "individual marker ehum:" in text
    assert "baseline 1/M!: 0.1667" in text
    report = json.loads(read(out / "hum.json"))
    assert set(report["individual_ehum"]) == {"m1", "m2"}
    assert 0.0 <= report["combined_ehum"] <= 1.0


def test_a_byte_order_mark_does_not_change_the_output(tmp_path, capsys):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    write_dataset(plain / "data.csv")
    (marked / "data.csv").write_bytes(b"\xef\xbb\xbf" + read(plain / "data.csv"))
    stdout = []
    for where in (plain, marked):
        assert cli.main([
            "hum", "--data", str(where / "data.csv"), "--outcome", "outcome",
            "--markers", "m1,m2", "--weights", "1.0,0.5", "--out", str(where / "out"),
        ]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    for name in ("hum.json", "manifest.json"):
        assert read(plain / "out" / name) == read(marked / "out" / name), name


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=reject)


def test_every_json_output_is_strict_json(tmp_path, capsys, monkeypatch):
    # the simulate run has a frechet and an empirical fit whose anchor
    # coefficient is exactly 0, so neither has a ratio in that replicate
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    data = ["--data", str(csv), "--outcome", "outcome", "--markers", "m1,m2"]
    runs = {"fit": ["fit", *data, "--bootstrap", "3", "--seed", "1"],
            "simulate": ["simulate", "--scenario", "1", "--n", "10,10,10", "--reps", "5",
                         "--seed", "1", "--methods", "empirical,frechet,sshum"],
            "hum": ["hum", *data, "--weights", "1.0,0.5"]}
    for command, args in runs.items():
        out = tmp_path / command
        assert cli.main(args + ["--out", str(out)]) == 0
        for path in sorted(out.glob("*.json")):
            _strict_json(read(path).decode())
    capsys.readouterr()

    summary = _strict_json(read(tmp_path / "simulate" / "study_summary.json").decode())
    undefined = {m: s["n_ratio_undefined"] for m, s in summary["methods"].items()}
    assert undefined == {"empirical": 1, "frechet": 1, "sshum": 0}
    rows = read(tmp_path / "simulate" / "study_coefficients.csv").decode().splitlines()[2:]
    assert len(rows) == 9
    assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(",")[2:])


def test_study_summary_writes_the_ratio_median_and_iqr(tmp_path, capsys):
    args = ["simulate", "--scenario", "1", "--n", "10,10,10", "--reps", "5", "--seed", "1",
            "--methods", "frechet,naive", "--workers", "1"]
    assert cli.main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = _strict_json(read(tmp_path / "study_summary.json").decode())["methods"]
    cfg = cli.ScenarioConfig(scenario_id=1, n=(10, 10, 10), replications=5, master_seed=1)
    for ms in cli.run_study(cfg, ["frechet", "naive"]).methods:
        assert written[ms.method]["coef_median"] == ms.coef_median.tolist()
        assert written[ms.method]["coef_iqr"] == ms.coef_iqr.tolist()


_FRESH_RUN = """
import sys
from shumfit import cli
csv, out = sys.argv[1:]
common = ["--data", csv, "--outcome", "outcome", "--markers", "m1,m2"]
codes = [cli.main(["hum", *common, "--weights", "1,0.5", "--out", out + "/hum"]),
         cli.main(["fit", *common, "--methods", "empirical", "--out", out + "/fit"])]
print(codes, "scipy.optimize" in sys.modules)
"""


def test_cli_runs_without_loading_scipy_optimize(tmp_path):
    # the pytest process has scipy.optimize loaded already (tests use it as an
    # oracle), so only a fresh interpreter shows what the CLI itself imports
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(csv), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_hum_naive_weights_four_markers(tmp_path, capsys):
    csv = tmp_path / "wide.csv"
    write_dataset(csv, d=4)
    code = cli.main([
        "hum", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2,m3,m4", "--weights", "naive",
    ])
    assert code == 0
    assert "combined ehum:" in capsys.readouterr().out


def test_hum_weight_count_mismatch_exits_2(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    code = cli.main([
        "hum", "--data", str(csv), "--outcome", "outcome",
        "--markers", "m1,m2", "--weights", "1,2,3",
    ])
    assert code == 2
    assert "2 markers" in capsys.readouterr().err


def test_bad_scenario_choice_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--scenario", "9", "--n", "10,10,10", "--reps", "1"])
    assert exc.value.code == 2


def test_weibull_scenario_with_four_categories_exits_2_before_the_study(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_study", None)  # starting the study would raise TypeError
    out = tmp_path / "o"
    code = cli.main(["simulate", "--scenario", "4", "--n", "5,5,5,5", "--reps", "2",
                     "--workers", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: scenario 4")
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["1.5,5,5", "0,5,5", "5", "5,,5"])
def test_bad_simulate_sizes_name_the_flag(tmp_path, capsys, monkeypatch, sizes):
    monkeypatch.setattr(cli, "run_study", None)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--scenario", "1", "--n", sizes, "--reps", "2",
                     "--workers", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --n expects comma-separated positive integers, at least two of them, "
        f"got {sizes!r}\n")
    assert not out.exists()


def test_simulate_end_to_end_and_byte_identity(tmp_path, capsys):
    args = ["simulate", "--scenario", "1", "--n", "15,15,15", "--reps", "3",
            "--methods", "naive,minmax,parametric", "--seed", "1"]
    out1, out2, out3 = (tmp_path / name for name in ("a", "b", "c"))
    assert cli.main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert cli.main(args + ["--out", str(out2), "--workers", "1"]) == 0
    assert cli.main(args + ["--out", str(out3), "--workers", "2"]) == 0
    capsys.readouterr()

    reproducible = ("study_summary.json", "study_ehum.csv",
                    "study_coefficients.csv", "manifest.json")
    for name in reproducible:
        assert read(out1 / name) == read(out2 / name), name
        assert read(out1 / name) == read(out3 / name), name
    assert (out1 / "timings.json").exists()

    summary = json.loads(read(out1 / "study_summary.json"))
    assert set(summary["methods"]) == {"naive", "minmax", "parametric"}
    assert all(m["n_not_converged"] == 0 for m in summary["methods"].values())
    ehum_lines = read(out1 / "study_ehum.csv").decode().splitlines()
    assert ehum_lines[1] == "method,mean_ehum,sd_ehum,n_failures"


def test_simulate_stdout_table(tmp_path, capsys):
    code = cli.main([
        "simulate", "--scenario", "2", "--n", "12,12,12", "--reps", "2",
        "--methods", "naive", "--out", str(tmp_path / "o"), "--workers", "1",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "scenario 2" in text
    assert "naive" in text


def test_simulate_abort_exits_3(tmp_path, capsys):
    code = cli.main([
        "simulate", "--scenario", "1", "--n", "1,1,1", "--reps", "2",
        "--methods", "parametric", "--out", str(tmp_path / "o"), "--workers", "1",
    ])
    assert code == 3


def command_args(command, csv):
    """A small valid run of each command, without --out."""
    data = ["--data", str(csv), "--outcome", "outcome", "--markers", "m1,m2"]
    return {"fit": ["fit", *data, "--methods", "naive,minmax", "--bootstrap", "2",
                    "--format", "csv"],
            "simulate": ["simulate", "--scenario", "1", "--n", "8,8,8", "--reps", "2",
                         "--methods", "naive,minmax", "--workers", "1"],
            "hum": ["hum", *data, "--weights", "1,0.5"]}[command]


@pytest.mark.parametrize("command", ["fit", "simulate", "hum"])
def test_out_under_a_regular_file_exits_2_before_any_fit(tmp_path, capsys, monkeypatch,
                                                        command):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setattr(cli, "fit_method", None)  # any fit would raise TypeError
    monkeypatch.setattr(cli, "run_study", None)
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    code = cli.main(command_args(command, csv) + ["--out", str(csv / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fit", "simulate", "hum"])
def test_unwritable_manifest_exits_2(tmp_path, capsys, monkeypatch, command):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    assert cli.main(command_args(command, csv) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write outputs: ")


def test_every_written_file_carries_the_manifest_hash(tmp_path, capsys, monkeypatch):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    written = {"fit": ("fit_report.json", "fit_report.csv", "timings.json"),
               "simulate": ("study_summary.json", "study_ehum.csv",
                            "study_coefficients.csv", "timings.json"),
               "hum": ("hum.json",)}
    for command, names in written.items():
        out = tmp_path / command
        assert cli.main(command_args(command, csv) + ["--out", str(out)]) == 0
        mhash = json.loads(read(out / "manifest.json"))["manifest_hash"]
        for name in names:
            text = read(out / name).decode()
            if name.endswith(".csv"):
                assert text.splitlines()[0] == f"# manifest_hash={mhash}", name
            else:
                assert json.loads(text)["manifest_hash"] == mhash, name
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ("manifest.json",))
    capsys.readouterr()


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("SHUMFIT_OUT_DIR", str(target))
    args = SimpleNamespace(out=None)
    assert cli._out_dir(args) == str(target)
    assert target.is_dir()
    args = SimpleNamespace(out=str(tmp_path / "explicit"))
    assert cli._out_dir(args).endswith("explicit")


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("SHUMFIT_WORKERS", "3")
    assert cli._workers(SimpleNamespace(workers=None)) == 3
    assert cli._workers(SimpleNamespace(workers=5)) == 5
    monkeypatch.delenv("SHUMFIT_WORKERS")
    assert cli._workers(SimpleNamespace(workers=None)) >= 1


def test_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("SHUMFIT_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert cli._workers(SimpleNamespace(workers=None)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._workers(SimpleNamespace(workers=None)) == 64


@pytest.mark.parametrize("flag, env", [
    ("0", None), ("-3", None), (None, "abc"), (None, "0"), (None, "2.5"),
])
def test_invalid_worker_counts_exit_2(tmp_path, capsys, monkeypatch, flag, env):
    monkeypatch.delenv("SHUMFIT_WORKERS", raising=False)
    if env:
        monkeypatch.setenv("SHUMFIT_WORKERS", env)
    sim = ["simulate", "--scenario", "1", "--n", "5,5,5", "--reps", "2",
           "--methods", "naive", "--out", str(tmp_path / "s")]
    assert cli.main(sim + (["--workers", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive integer" in err
    if env:
        csv = tmp_path / "data.csv"
        write_dataset(csv)
        fit = ["fit", "--data", str(csv), "--outcome", "outcome", "--markers", "m1,m2",
               "--methods", "naive", "--out", str(tmp_path / "f")]
        assert cli.main(fit + ["--bootstrap", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: SHUMFIT_WORKERS")
        assert not (tmp_path / "f").exists()


def test_fit_bootstrap_outputs_do_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    args = ["fit", "--data", str(csv), "--outcome", "outcome",
            "--markers", "m1,m2", "--methods", "empirical,minmax,naive",
            "--bootstrap", "5", "--seed", "4", "--format", "csv"]
    outs, stdouts = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("SHUMFIT_WORKERS", workers)
        outs.append(tmp_path / f"w{workers}")
        assert cli.main(args + ["--out", str(outs[-1])]) == 0
        stdouts.append(capsys.readouterr().out)
        assert json.loads(read(outs[-1] / "timings.json"))["workers"] == int(workers)
    assert multiprocessing.active_children() == []
    assert stdouts[0] == stdouts[1]
    for name in ("fit_report.json", "fit_report.csv", "manifest.json"):
        assert read(outs[0] / name) == read(outs[1] / name), name


def test_fit_bootstrap_writes_each_methods_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHUMFIT_WORKERS", "1")
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    out = tmp_path / "o"
    names = ["empirical", "minmax", "naive"]
    assert cli.main([
        "fit", "--data", str(csv), "--outcome", "outcome", "--markers", "m1,m2",
        "--methods", ",".join(names), "--bootstrap", "4", "--format", "csv",
        "--out", str(out),
    ]) == 0
    reports = json.loads(read(out / "fit_report.json"))["reports"]
    for m in names:
        boot = reports[m]["bootstrap"]
        assert set(boot) == {"se_coefficients", "se_ehum", "replicates", "failures",
                             "convention"}
        assert boot["convention"] == "unit_norm_aligned"
        assert boot["replicates"] == 4
    rows = [ln.split(",") for ln in read(out / "fit_report.csv").decode().splitlines()]
    assert [r[0] for r in rows if r[1:2] == ["se_ehum"]] == names
    se_rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("se(ehum)")]
    assert len(se_rows) == 1 and len(se_rows[0]) == 3  # empirical and naive


def test_fit_reruns_are_byte_identical(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    write_dataset(csv)
    args = ["fit", "--data", str(csv), "--outcome", "outcome",
            "--markers", "m1,m2", "--methods", "empirical,sshum",
            "--bootstrap", "4", "--seed", "7"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("fit_report.json", "manifest.json"):
        assert read(out1 / name) == read(out2 / name), name
