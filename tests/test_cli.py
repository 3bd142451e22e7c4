"""Command-line interface: exit codes, config precedence, environment seed
override, and the artifact layout written by train/sweep/analyze.  Everything
runs in-process through main(argv).
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from measure_attn import StudentModel, scaling_axis
from measure_attn.cli import ENV_SEED, main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


TINY = ["--n-tokens", "60", "--n-val", "10", "--epochs", "2",
        "--batch-size", "2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- verify

def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "orthonormality"])
    assert code == 0
    assert "orthonormality" in out and "PASS" in out
    assert "all suites passed" in out


@pytest.mark.parametrize("suite", ["orthonormality", "isometry", "truncation",
                                   "recall", "lipschitz", "gradient"])
def test_verify_injected_fault_fails_with_named_check(capsys, suite):
    code, out, _ = run(capsys, ["verify", "--suite", suite,
                                "--inject-fault", suite])
    assert code == 1
    assert suite in out and "FAIL" in out
    assert "FAILED" in out  # the specific check is listed
    assert "SUITE FAILURES" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "nonexistent"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["--suite", "lipschitz", "--inject-fault", "gradient"],
    ["--suite", ""],
    ["--suite", " , "],
])
def test_verify_bad_suite_selection_is_usage_error(capsys, argv):
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2
    assert "error:" in err
    assert "passed" not in out


def test_verify_repeated_suite_runs_once(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "truncation,truncation",
                                "--suite", "truncation"])
    assert code == 0
    assert out.count("truncation") == 1


# -------------------------------------------------------------------- gen

def test_gen_stdout_payload_and_determinism(capsys):
    argv = ["gen", "--seed", "3", "--n-tokens", "40"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["context_tokens"]) == 40
    assert len(doc["context_tokens"][0]) == 2
    assert doc["query_token"][0] == 0.0
    assert doc["hidden"]["v1"] in (-1.0, 1.0)
    assert math.isfinite(doc["target"])
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0 and out2 == out


def test_gen_out_file(tmp_path, capsys, monkeypatch):
    from measure_attn import experiment
    written = []
    real = experiment._atomic_write

    def spy(path, data):
        written.append(path)
        real(path, data)

    monkeypatch.setattr(experiment, "_atomic_write", spy)
    argv = ["gen", "--seed", "1", "--n-tokens", "30"]
    _, stdout_json, _ = run(capsys, argv)
    path = str(tmp_path / "ex.json")
    code, out, _ = run(capsys, [*argv, "--out", path])
    assert code == 0
    assert "wrote" in out
    assert written == [path]
    assert Path(path).read_text() == stdout_json
    doc = json.loads(Path(path).read_text())
    assert len(doc["context_tokens"]) == 30
    assert os.listdir(tmp_path) == ["ex.json"]  # no .tmp-*.part left


def test_gen_out_in_missing_directory_is_io_error(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.json")
    code, _, err = run(capsys, ["gen", "--n-tokens", "30", "--out", path])
    assert code == 2
    assert "error:" in err and path in err


def test_gen_reduced_profile_token_count(capsys):
    code, out, _ = run(capsys, ["gen", "--profile", "reduced", "--seed", "0"])
    assert code == 0
    assert len(json.loads(out)["context_tokens"]) == 1000


def test_env_seed_overrides_flag(capsys, monkeypatch):
    _, baseline, _ = run(capsys, ["gen", "--seed", "7", "--n-tokens", "40"])
    monkeypatch.setenv(ENV_SEED, "7")
    code, out, _ = run(capsys, ["gen", "--seed", "5", "--n-tokens", "40"])
    assert code == 0
    assert out == baseline
    monkeypatch.delenv(ENV_SEED)
    _, other, _ = run(capsys, ["gen", "--seed", "5", "--n-tokens", "40"])
    assert other != baseline


def test_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    code, _, err = run(capsys, ["gen"])
    assert code == 2
    assert ENV_SEED in err


# ------------------------------------------------------------------ train

def test_train_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "cell")
    code, out, _ = run(capsys, ["train", *TINY, "--n-train", "2",
                                "--out", out_dir])
    assert code == 0
    assert "val_mse=" in out
    for name in ("config_resolved.json", "checkpoint.json", "losses.csv",
                 "metrics.json"):
        assert os.path.isfile(os.path.join(out_dir, name)), name
    losses = Path(os.path.join(out_dir, "losses.csv")).read_text().splitlines()
    assert losses[0] == "epoch,train_loss"
    assert len(losses) == 3  # header + 2 epochs
    metrics = json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())
    assert metrics["n"] == 2 and metrics["val_mse"] >= 0.0
    assert "m_same_mean" in metrics["attention_stats"]
    model = StudentModel.from_dict(
        json.loads(Path(os.path.join(out_dir, "checkpoint.json")).read_text()))
    assert np.all(np.isfinite(model.params))
    resolved = json.loads(
        Path(os.path.join(out_dir, "config_resolved.json")).read_text())
    assert resolved["n_tokens"] == 60
    assert resolved["train"]["epochs"] == 2


def test_train_writes_artifacts_atomically(tmp_path, capsys, monkeypatch):
    from measure_attn import experiment
    written = []
    real = experiment._atomic_write

    def spy(path, data):
        written.append(os.path.basename(path))
        real(path, data)

    monkeypatch.setattr(experiment, "_atomic_write", spy)
    out_dir = str(tmp_path / "cell")
    code, _, _ = run(capsys, ["train", *TINY, "--n-train", "2",
                              "--out", out_dir])
    assert code == 0
    assert {"checkpoint.json", "losses.csv", "metrics.json"} <= set(written)
    json.loads(Path(os.path.join(out_dir, "checkpoint.json")).read_text())
    json.loads(Path(os.path.join(out_dir, "metrics.json")).read_text())
    assert Path(os.path.join(out_dir, "losses.csv")).read_text().endswith("\n")
    assert not [f for f in os.listdir(out_dir) if f.endswith(".part")]


def test_train_out_is_existing_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code, _, err = run(capsys, ["train", *TINY, "--n-train", "2",
                                "--out", str(path)])
    assert code == 2
    assert "error:" in err and str(path) in err


@pytest.mark.parametrize("extra, env_seed, named", [
    (("--n-train", "0"), None, "--n-train"),
    (("--cell-seed", "-1"), None, "--cell-seed"),
    (("--seed", "-1"), None, "seed"),
    ((), "-1", "seed"),
], ids=["n-train-0", "cell-seed-negative", "seed-negative",
        "env-seed-negative"])
def test_train_rejects_bad_sizes_and_seeds(tmp_path, capsys, monkeypatch,
                                           extra, env_seed, named):
    if env_seed is not None:
        monkeypatch.setenv(ENV_SEED, env_seed)
    out_dir = tmp_path / "cell"
    code, _, err = run(capsys, ["train", *TINY, *extra, "--out", str(out_dir)])
    assert code == 2
    assert "error:" in err and named in err
    assert not out_dir.exists()   # rejected before anything is written


@pytest.mark.parametrize("extra, config, alpha", [
    ((), None, 1.0),
    (("--alpha", "2"), None, 2.0),
    ((), {"alpha_list": [2.0]}, 2.0),
    (("--alpha", "0.5"), {"alpha_list": [2.0]}, 0.5),
], ids=["default", "flag", "config-file", "flag-over-config-file"])
def test_train_uses_the_alpha_it_is_given(tmp_path, capsys, extra, config,
                                          alpha):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = (*extra, "--config", str(tmp_path / "cfg.json"))
    out_dir = tmp_path / "cell"
    code, out, _ = run(capsys, ["train", *TINY, "--n-train", "2", *extra,
                                "--out", str(out_dir)])
    assert code == 0
    assert f"alpha={alpha:g} " in out
    assert json.loads((out_dir / "metrics.json").read_text())["alpha"] == alpha
    resolved = json.loads((out_dir / "config_resolved.json").read_text())
    assert resolved["alpha_list"] == [alpha]


def test_train_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--n-train", "2"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ sweep

def sweep_argv(out_dir, alpha="1.0", n_stat_examples="5", extra=()):
    return ["sweep", "--alpha", alpha, "--n", "2,4", "--seeds", "1", *TINY,
            "--n-stat-examples", n_stat_examples, "--out", out_dir, *extra]


@pytest.mark.parametrize("alpha", ["1.0", "0.3333333333"])
def test_sweep_bundle_then_analyze(tmp_path, capsys, alpha):
    label = f"{float(alpha):g}"
    out_dir = str(tmp_path / "bundle")
    code, out, _ = run(capsys, sweep_argv(out_dir, alpha))
    assert code == 0
    assert "sweep: 2/2 cells" in out
    assert f"alpha={label}:" in out and "bundle written" in out
    for name in ("risk_curve.csv", "attention_stats.csv", "fit.json",
                 "scaling_axis.dat", "manifest.json", "config_resolved.json"):
        assert os.path.isfile(os.path.join(out_dir, name)), name

    # resume: second run must succeed without recomputing cells
    cells_dir = os.path.join(out_dir, "cells")
    stamps = {c: os.stat(os.path.join(cells_dir, c)).st_mtime_ns
              for c in os.listdir(cells_dir)}
    code2, out2, _ = run(capsys, sweep_argv(out_dir, alpha))
    assert code2 == 0 and "sweep: 2/2 cells" in out2
    for c, ns in stamps.items():
        assert os.stat(os.path.join(cells_dir, c)).st_mtime_ns == ns

    # analyze the bundle: table then json
    code3, table, _ = run(capsys, ["analyze", out_dir])
    assert code3 == 0
    assert "risk scaling fits" in table
    assert f"curve alpha={label}:" in table
    assert "attention masses" in table
    code4, js, _ = run(capsys, ["analyze", out_dir, "--format", "json"])
    assert code4 == 0
    doc = json.loads(js)
    assert doc["curves"][label]["n"] == [2, 4]
    assert set(doc["fits"][label]) == {"A", "C", "residual_rms"}
    fit_doc = json.loads(Path(os.path.join(out_dir, "fit.json")).read_text())
    (planted,) = fit_doc.values()
    assert doc["fits"][label]["C"] == pytest.approx(planted["C"], rel=1e-12)


@pytest.mark.parametrize("n_stat_examples, jobs, named", [
    ("5", "0", "--jobs"), ("5", "-1", "--jobs"), ("0", "1", "n_stat_examples")],
    ids=["jobs-0", "jobs-negative", "n-stat-examples-0"])
def test_sweep_rejects_nonpositive_counts(tmp_path, capsys, n_stat_examples,
                                          jobs, named):
    out_dir = tmp_path / "bundle"
    argv = sweep_argv(str(out_dir), n_stat_examples=n_stat_examples,
                      extra=("--jobs", jobs))
    code, _, err = run(capsys, argv)
    assert code == 2
    assert named in err
    assert not out_dir.exists()   # rejected before any cell is trained


def test_analyze_missing_bundle_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "nope")])
    assert code == 2
    assert "risk_curve.csv" in err


@pytest.mark.parametrize("text", [
    "alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,oops\n",
    "n,seed,val_mse\n4,0,0.5\n8,0,0.25\n",
    "alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,inf\n",
    "alpha,n,seed,val_mse\n1,4,0,nan\n1,8,0,0.25\n",
    "alpha,n,seed,val_mse\n1,0,0,0.5\n1,8,0,0.25\n",
    "alpha,n,seed,val_mse\n1,-4,0,0.5\n1,8,0,0.25\n",
    "alpha,n,seed,val_mse\n-1,4,0,0.5\n-1,8,0,0.25\n",
    "alpha,n,seed,val_mse\n0,4,0,0.5\n0,8,0,0.25\n",
    "alpha,n,seed,val_mse\nnan,4,0,0.5\nnan,8,0,0.25\n",
    "alpha,n,seed,val_mse\ninf,4,0,0.5\ninf,8,0,0.25\n",
    b"alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,0.\xff25\n",
    b"alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,0.\x0025\n",
], ids=["non-numeric-val-mse", "no-alpha-column", "inf-val-mse",
        "nan-val-mse", "n-zero", "n-negative", "alpha-negative", "alpha-zero",
        "alpha-nan", "alpha-inf", "not-utf8", "nul-byte"])
def test_analyze_malformed_risk_csv_is_usage_error(tmp_path, capsys, text):
    (tmp_path / "risk_curve.csv").write_bytes(
        text if isinstance(text, bytes) else text.encode())
    code, _, err = run(capsys, ["analyze", str(tmp_path)])
    assert code == 2
    assert "malformed" in err and "risk_curve.csv" in err


@pytest.mark.parametrize("fmt, row", [
    ("table", b"1,8,0,oops,1e-3,0,0,0.5,0.5"),
    ("json", b"1,8,0,oops,1e-3,0,0,0.5,0.5"),
    ("table", b"1,8,0,0.\xff5,1e-3,0,0,0.5,0.5"),
    ("json", b"1,8,0,0.\x005,1e-3,0,0,0.5,0.5"),
    ("table", b"1,0,0,0.5,1e-3,0,0,0.5,0.5"),
    ("json", b"nan,8,0,0.5,1e-3,0,0,0.5,0.5"),
], ids=["table", "json", "table-not-utf8", "json-nul-byte", "table-n-zero",
        "json-alpha-nan"])
def test_analyze_malformed_stats_csv_is_usage_error(tmp_path, capsys, fmt, row):
    (tmp_path / "risk_curve.csv").write_text(
        "alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,0.25\n")
    (tmp_path / "attention_stats.csv").write_bytes(
        b"alpha,n,head,w_same_mean,w_diff_mean,w_same_std,w_diff_std,"
        b"m_same_mean,m_diff_mean\n" + row + b"\n")
    code, out, err = run(capsys, ["analyze", str(tmp_path), "--format", fmt])
    assert code == 2
    assert "malformed" in err and "attention_stats.csv" in err
    assert out == ""   # rejected before anything is printed


def test_analyze_recovers_planted_collinear_fit(tmp_path, capsys):
    A, C = 1.0, 2.0
    n_values = [4, 16, 64, 256]
    t = scaling_axis(1.0, np.array(n_values))
    lines = ["alpha,n,seed,val_mse"]
    for n, tn in zip(n_values, t):
        lines.append(f"1.0,{n},0,{math.exp(A - C * tn):.17g}")
    (tmp_path / "risk_curve.csv").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["analyze", str(tmp_path), "--format", "json"])
    assert code == 0
    fits = json.loads(out)["fits"]["1"]
    assert fits["A"] == pytest.approx(A, abs=1e-10)
    assert fits["C"] == pytest.approx(C, abs=1e-10)
    assert fits["residual_rms"] <= 1e-10


# ----------------------------------------------------- config precedence

def test_config_file_merging_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_tokens": 77, "seed": 11}))
    code, out, _ = run(capsys, ["gen", "--config", str(cfg_path)])
    assert code == 0
    assert len(json.loads(out)["context_tokens"]) == 77

    # explicit flag beats the file
    code, out, _ = run(capsys, ["gen", "--config", str(cfg_path),
                                "--n-tokens", "33"])
    assert len(json.loads(out)["context_tokens"]) == 33

    # the reduced profile beats the file but loses to flags
    code, out, _ = run(capsys, ["gen", "--config", str(cfg_path),
                                "--profile", "reduced"])
    assert len(json.loads(out)["context_tokens"]) == 1000
    code, out, _ = run(capsys, ["gen", "--config", str(cfg_path),
                                "--profile", "reduced", "--n-tokens", "44"])
    assert len(json.loads(out)["context_tokens"]) == 44


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["gen", "--config", "/no/such/file.json"])
    assert code == 2
    assert "config file" in err


@pytest.mark.parametrize("content", [b"[1, 2]", b'"x"', b"3", b"null",
                                     b'{"seed": "\xff"}'],
                         ids=["list", "string", "number", "null", "not-utf8"])
@pytest.mark.parametrize("command", ["gen", "train", "sweep"])
def test_config_file_not_a_json_object_is_usage_error(tmp_path, capsys,
                                                      command, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    out_dir = tmp_path / "bundle"
    argv = [command, "--config", str(cfg_path)]
    if command != "gen":
        argv += ["--out", str(out_dir)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert f"config file {cfg_path}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, config", [
    (["gen", "--config", "{config}"], {"n_list": [8, 4]}),
    (["gen", "--alpha", "abc"], {}),
    (["sweep", "--n", "4,x", "--out", "{out}"], {}),
    (["gen", "--alpha=-1"], {}),
    (["gen", "--alpha", "0"], {}),
    (["gen", "--alpha", "nan"], {}),
    (["gen", "--clamp-eps", "0"], {}),
    (["gen", "--config", "{config}"], {"M": 0}),
    (["train", "--decay", "2", "--out", "{out}"], {}),
    (["train", "--lr0", "nan", "--out", "{out}"], {}),
    (["train", "--lr0=-1", "--out", "{out}"], {}),
    (["train", "--noise-std", "nan", "--out", "{out}"], {}),
    (["sweep", "--clamp-eps", "0", "--out", "{out}"], {}),
    (["train", "--config", "{config}", "--out", "{out}"], {"train": {"seed": 3}}),
    (["train", "--config", "{config}", "--out", "{out}"],
     {"train": {"batch_size": None}}),
    (["train", "--alpha", "0.5,1", "--out", "{out}"], {}),
    (["train", "--config", "{config}", "--out", "{out}"],
     {"alpha_list": [1.0, 2.0]}),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"seeds": 1.5}),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"n_tokens": 100.5}),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"n_list": [2.7, 4]}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"train": {"epochs": 2.5}}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"n_stat_examples": 2.5}),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"M": 4.0, "T": 8}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"student": {"d_model": 8.0}}),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"n_list": [0, 4]}),
    (["sweep", "--n", "0,4", "--out", "{out}"], {}),
    (["sweep", "--alpha", "1,1", "--n", "2,4", "--out", "{out}"], {}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"alpha_list": [1.0, 1.0]}),
    (["gen", "--alpha", "0.5,2"], {}),
    (["gen", "--config", "{config}"], {"alpha_list": [0.5, 2.0]}),
    (["gen", "--clamp-eps", "inf"], {}),
    (["train", "--lr0", "inf", "--out", "{out}"], {}),
    (["train", "--noise-std", "inf", "--out", "{out}"], {}),
    (["train", "--config", "{config}", "--out", "{out}"], {"train": {"beta1": 1.0}}),
    (["train", "--config", "{config}", "--out", "{out}"], {"train": {"beta2": 2}}),
    (["train", "--config", "{config}", "--out", "{out}"], {"train": {"eps": 0}}),
], ids=["config-n-list-decreasing", "gen-alpha-non-numeric",
        "sweep-n-non-numeric", "gen-alpha-negative", "gen-alpha-zero",
        "gen-alpha-nan", "gen-clamp-eps-zero", "config-M-zero",
        "train-decay-above-one", "train-lr0-nan", "train-lr0-negative",
        "train-noise-std-nan", "sweep-clamp-eps-zero", "config-train-seed",
        "config-train-batch-size-null", "train-two-alphas",
        "config-train-two-alphas", "sweep-seeds-fractional",
        "sweep-n-tokens-fractional", "sweep-n-list-fractional",
        "sweep-train-epochs-fractional", "sweep-n-stat-examples-fractional",
        "sweep-M-float", "sweep-student-d-model-float",
        "sweep-n-list-zero", "sweep-n-zero", "sweep-alpha-repeated",
        "config-alpha-repeated", "gen-two-alphas", "config-gen-two-alphas",
        "gen-clamp-eps-inf", "train-lr0-inf", "train-noise-std-inf",
        "config-train-beta1-one", "config-train-beta2-two",
        "config-train-eps-zero"])
def test_invalid_config_value_is_usage_error(tmp_path, capsys, argv, config):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "bundle"
    code, _, err = run(capsys, [a.format(config=cfg_path, out=out_dir)
                                for a in argv])
    assert code == 2
    assert "bad configuration" in err
    assert not out_dir.exists()


def test_help_exits_zero():
    for argv in (["--help"], ["verify", "--help"], ["gen", "--help"],
                 ["train", "--help"], ["sweep", "--help"],
                 ["analyze", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
