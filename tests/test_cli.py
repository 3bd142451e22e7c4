"""Command-line interface: exit codes, config precedence, environment seed
override, and the artifact layout written by train/sweep/analyze.  Everything
runs in-process through main(argv), except the one case that needs a
memory-capped child process (CAPPED).  Also the package's exported names.
"""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure_attn
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


# an argv that starts with CAPPED runs in a child process with its address
# space capped near 1 GB, as `ulimit -v 1000000` does: a regression that
# builds a huge sweep grid before checking it then fails fast with
# MemoryError instead of exhausting the machine's memory
CAPPED = "capped"
AS_CAP = 1_000_000 * 1024


def run_capped(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "measure_attn.cli", *argv], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP)))
    return out.returncode, out.stdout, out.stderr


def test_every_exported_name_is_defined():
    missing = [name for name in measure_attn.__all__
               if not hasattr(measure_attn, name)]
    assert missing == []


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


@pytest.mark.parametrize("failure, reason", [
    ("rejected-step", "ValueError: non-finite gradient; step rejected"),
    ("nan-val-mse", "FloatingPointError: non-finite val_mse nan"),
])
def test_train_failure_exits_1_and_writes_no_results(tmp_path, capsys, monkeypatch,
                                                     failure, reason):
    # at lr0=1e300 Adam's first step overflows the next gradient; a
    # non-finite val_mse fails as it fails a sweep cell
    from measure_attn import experiment
    argv = ["train", *TINY, "--n-train", "4", "--out", str(tmp_path / "cell")]
    if failure == "rejected-step":
        argv += ["--lr0", "1e300"]
    else:
        real = experiment._validate
        monkeypatch.setattr(experiment, "_validate",
                            lambda *args: [(math.nan, stats) for _, stats in real(*args)])
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: training failed: {reason}\n"
    assert os.listdir(tmp_path / "cell") == ["config_resolved.json"]


@pytest.mark.parametrize("argv, named", [
    (["gen", "--n-tokens", "60", "--out", "{out}"], "a context of 60 tokens"),
    (["train", *TINY, "--n-train", "4", "--out", "{out}"],
     "4 training and 10 validation contexts"),
    ([CAPPED, "gen", "--n-tokens", "1000000000000"], "1000000000000 tokens"),
    ([CAPPED, "train", "--profile", "reduced", "--n-train", "1000000000000",
      "--out", "{out}"], "1000000000000 training"),
], ids=["gen", "train", "capped-gen", "capped-train"])
def test_a_size_too_large_to_hold_exits_2(tmp_path, capsys, monkeypatch, argv, named):
    # in-process the draw raises as numpy does when it cannot allocate an
    # array; capped, a real allocation fails
    from measure_attn import experiment

    def draw(*args):
        raise MemoryError("Unable to allocate 14.6 TiB")
    monkeypatch.setattr(experiment, "_draw", draw)
    out = tmp_path / "cell"
    argv = [a.format(out=out) for a in argv]
    if argv[0] == CAPPED:
        code, stdout, err = run_capped(argv[1:])
    else:
        code, stdout, err = run(capsys, argv)
    assert code == 2 and stdout == "" and "Traceback" not in err
    assert err.startswith("error: cannot hold ") and err.count("\n") == 1
    assert named in err
    # nothing is written: train writes its resolved config after the draw
    assert not out.exists()


def test_train_out_is_existing_file_is_io_error(tmp_path, capsys, monkeypatch):
    from measure_attn import cli
    monkeypatch.setattr(cli, "run_cell", lambda *args: pytest.fail("trained"))
    path = tmp_path / "taken"
    path.write_text("")
    # the file itself, or a path under it that cannot be made: each fails
    # before training and writes nothing
    for out in (path, path / "sub"):
        code, _, err = run(capsys, ["train", *TINY, "--n-train", "2",
                                    "--out", str(out)])
        assert code == 2
        assert "error:" in err and str(out) in err
    assert os.listdir(tmp_path) == ["taken"] and path.read_text() == ""


@pytest.mark.parametrize("extra, env_seed, named", [
    (("--n-train", "0"), None, "--n-train"),
    (("--n-train", "99999999999999999999"), None, "--n-train"),
    (("--cell-seed", "-1"), None, "--cell-seed"),
    (("--seed", "-1"), None, "seed"),
    ((), "-1", "seed"),
], ids=["n-train-0", "n-train-beyond-int64", "cell-seed-negative", "seed-negative",
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
    (("--alpha", "0.5000001"), None, 0.5000001),   # :g would print 0.5
], ids=["default", "flag", "config-file", "flag-over-config-file", "seven-digits"])
def test_train_uses_the_alpha_it_is_given(tmp_path, capsys, extra, config,
                                          alpha):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = (*extra, "--config", str(tmp_path / "cfg.json"))
    out_dir = tmp_path / "cell"
    code, out, _ = run(capsys, ["train", *TINY, "--n-train", "2", *extra,
                                "--out", str(out_dir)])
    assert code == 0
    assert f"alpha={alpha:.17g} " in out   # as sweep and analyze print it
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
    key = f"{float(alpha):.17g}"   # the printed label and the json key
    out_dir = str(tmp_path / "bundle")
    code, out, _ = run(capsys, sweep_argv(out_dir, alpha))
    assert code == 0
    assert "sweep: 2/2 cells" in out
    assert f"alpha={key}:" in out and "bundle written" in out
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
    assert f"curve alpha={key}:" in table
    assert "attention masses" in table
    code4, js, _ = run(capsys, ["analyze", out_dir, "--format", "json"])
    assert code4 == 0
    doc = json.loads(js)
    assert doc["curves"][key]["n"] == [2, 4]
    assert set(doc["fits"][key]) == {"A", "C", "residual_rms"}
    fit_doc = json.loads(Path(os.path.join(out_dir, "fit.json")).read_text())
    (planted,) = fit_doc.values()
    assert doc["fits"][key]["C"] == pytest.approx(planted["C"], rel=1e-12)


def test_alphas_equal_to_six_digits_keep_their_own_labels(tmp_path, capsys):
    out_dir = str(tmp_path / "bundle")
    code, out, _ = run(capsys, sweep_argv(out_dir, "0.5,0.5000001"))
    assert code == 0
    labels = ["0.5", "0.50000009999999995"]
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("  alpha=")] == [f"  alpha={a}" for a in labels]
    fit_doc = json.loads(Path(out_dir, "fit.json").read_text())
    assert sorted(fit_doc) == labels
    dat = Path(out_dir, "scaling_axis.dat").read_text()
    assert [line.split()[1] for line in dat.splitlines()
            if line.startswith("#")] == [f"alpha={a}" for a in labels]
    code, table, _ = run(capsys, ["analyze", out_dir])
    assert code == 0
    lines = table.splitlines()
    assert [row.split()[0] for row in lines[2:4]] == labels   # the fit rows
    assert [line.split(":")[0] for line in lines[4:6]] == [
        f"curve alpha={a}" for a in labels]
    assert f"attention masses at alpha={labels[1]}, n=4 " in table
    code, js, _ = run(capsys, ["analyze", out_dir, "--format", "json"])
    assert code == 0
    doc = json.loads(js)
    assert sorted(doc["fits"]) == sorted(doc["curves"]) == labels
    for a in labels:
        assert doc["fits"][a]["C"] == pytest.approx(fit_doc[a]["C"], rel=1e-12)


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


def test_analyze_json_gives_attention_stats_as_numbers(tmp_path, capsys):
    (tmp_path / "risk_curve.csv").write_text(
        "alpha,n,seed,val_mse\n1,4,0,0.5\n1,8,0,0.25\n")
    (tmp_path / "attention_stats.csv").write_text(
        "alpha,n,head,w_same_mean,w_diff_mean,w_same_std,w_diff_std,"
        "m_same_mean,m_diff_mean\n1,8,0,0.5,1e-3,0,0,0.51,0.49\n")
    code, out, _ = run(capsys, ["analyze", str(tmp_path), "--format", "json"])
    assert code == 0
    (row,) = json.loads(out)["attention_stats"]
    assert row == {"alpha": 1.0, "n": 8, "head": 0, "w_same_mean": 0.5,
                   "w_diff_mean": 1e-3, "w_same_std": 0.0, "w_diff_std": 0.0,
                   "m_same_mean": 0.51, "m_diff_mean": 0.49}
    assert [type(row[k]) for k in ("alpha", "n", "head", "w_diff_std")] == [
        float, int, int, float]


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
    (["sweep", "--alpha", "inf", "--n", "2,4", "--out", "{out}"], {}),
    (["gen", "--alpha", "inf"], {}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"alpha_list": [float("inf")]}),
    (["gen", "--config", "{config}"], {"student": {"input_dim": 3}}),
    (["train", "--config", "{config}", "--out", "{out}"],
     {"student": {"input_dim": 3}}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"student": {"input_dim": 3}}),
    (["train", "--config", "{config}", "--out", "{out}"],
     {"student": {"n_heads": True}}),
    (["train", "--config", "{config}", "--out", "{out}"],
     {"train": {"epochs": True}}),
    (["sweep", "--config", "{config}", "--out", "{out}"],
     {"train": {"epochs": True}}),
    *((["train", "--config", "{config}", "--profile", "reduced", "--n-train", "4",
        "--n-val", "20", "--n-tokens", "50", "--out", "{out}"], config)
      for config in ({"train": {"lr0": True, "epochs": 1}},
                     {"train": {"decay_per_epoch": True}},
                     {"train": {"noise_std": False}},
                     {"train": {"beta1": False}},
                     {"train": {"beta2": False}},
                     {"train": {"eps": True}},
                     {"clamp_eps": True},
                     {"alpha_list": [True]})),
    (["sweep", "--config", "{config}", "--out", "{out}"], {"alpha_list": [0.5, True]}),
    *((["sweep", "--config", "{config}", "--n-val", "20", "--n-tokens", "50",
        "--epochs", "1", "--seeds", "1", "--out", "{out}"], config)
      for config in ({"n_list": [True, 4]},
                     {"alpha_list": "12"},
                     {"alpha_list": [1, "2"]},
                     {"n_list": "48"})),
    (["sweep", "--n-tokens", "99999999999999999999", "--out", "{out}"], {}),
    (["sweep", "--config", "{config}", "--n", "4", "--alpha", "1", "--seeds", "1",
      "--n-tokens", "50", "--n-stat-examples", "2", "--epochs", "1", "--out", "{out}"],
     {"n_val": 99999999999999999999}),
    ([CAPPED, "sweep", "--seeds", "99999999999999999999", "--n", "4", "--alpha", "1",
      "--out", "{out}"], {}),
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
        "config-train-eps-zero", "sweep-alpha-inf", "gen-alpha-inf",
        "config-sweep-alpha-inf", "config-gen-input-dim-3",
        "config-train-input-dim-3", "config-sweep-input-dim-3",
        "config-train-n-heads-bool", "config-train-epochs-bool",
        "config-sweep-epochs-bool", "config-train-lr0-bool",
        "config-train-decay-bool", "config-train-noise-std-bool",
        "config-train-beta1-bool", "config-train-beta2-bool",
        "config-train-eps-bool", "config-train-clamp-eps-bool",
        "config-train-alpha-bool", "config-sweep-alpha-bool",
        "config-sweep-n-list-bool", "config-sweep-alpha-list-string",
        "config-sweep-alpha-string", "config-sweep-n-list-string",
        "sweep-n-tokens-beyond-int64", "config-sweep-n-val-beyond-int64",
        "capped-sweep-grid-beyond-100000-cells"])
def test_invalid_config_value_is_usage_error(tmp_path, capsys, argv, config):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "bundle"
    argv = [a.format(config=cfg_path, out=out_dir) for a in argv]
    if argv[0] == CAPPED:
        code, _, err = run_capped(argv[1:])
        assert "Traceback" not in err
    else:
        code, _, err = run(capsys, argv)
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
