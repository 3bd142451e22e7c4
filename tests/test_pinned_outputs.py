"""Byte identity as a check: sha256 digests of the outputs that a change to
the package's arithmetic or layout must leave alone.

The outputs are the reduced sweep's bundle and cell files, the artifacts
of three train runs (one with validation sets of several scoring blocks,
one of a tanh student at batch size 16),
gen's stdout and verify --verbose's stdout with the per-suite
seconds stripped, and one model's per-row scores on a validation set
(the bundles hold only their means).  Criterion 9 compares a serial with a parallel sweep of
the same code; these digests compare the code with its past.

Digests may differ across Python, numpy and BLAS builds, so they hold only
for the build they were taken with, and elsewhere the test skips and says
why.  Re-pinning is a reviewed change: CHANGES.md gives the old and new
digests and the reason.  Run it alone with
    python -m pytest -rs tests/test_pinned_outputs.py
"""

import hashlib
import platform
import re

import numpy as np
import pytest

from measure_attn.cli import ENV_SEED, main
from measure_attn.experiment import ExperimentConfig, _draw
from measure_attn.model import (_BLOCK, StudentModel, _block_views, _layout,
                                _score_rows)

PINNED_WITH = "Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31"

COMMANDS = (
    ["sweep", "--profile", "reduced", "--n", "4,8,16", "--seeds", "2",
     "--jobs", "1", "--out", "sweep"],
    ["train", "--profile", "reduced", "--n-train", "64", "--out", "train"],
    # 1,500 validation rows: each query tag's rows span several scoring blocks
    ["train", "--profile", "reduced", "--n-train", "16", "--n-val", "1500",
     "--out", "train_blocks"],
    # tanh, and a batch of 16 rows reaching the head's bias sum
    ["train", "--profile", "reduced", "--n-train", "64", "--batch-size", "16",
     "--config", "../tanh.json", "--out", "train_tanh"],
)

PINNED = {
    "sweep/attention_stats.csv": "9c7e6b7dd4d31ae8c913befb54d06f333823dab0a0c0b622af6daea4b4bc0c8c",
    "sweep/cells/02bed199dd27bcf5.json": "dbc03bb2435675462a492f54ef3e5da3a9050471147d926ab62fea4b1b1a0ac5",
    "sweep/cells/06b6b75422dcdbe6.json": "417806f3cfae648ff6c69297880d531b71a141901215acf24bc276aca52a69d8",
    "sweep/cells/1d487996262d6291.json": "00b03d4d7296f5e9fa0a84ea4493731deadd6c61880272f275ae14f9df525706",
    "sweep/cells/23f75c49496430bb.json": "b6c5671ef50ff76af139125769202cabdcbf0fa47aa43fa4f07b21f60f0caf41",
    "sweep/cells/2771109f52866334.json": "71fb8c9be8ae346f3d4446e7f8cf76ed4cb727837374d4e7cdcbc69e9c7c1ab0",
    "sweep/cells/2b62df7c2c0fff9f.json": "ef81b402c40cfb42c92a2c31635af0e8fb8c0860faa309d1d65b1a64095f302a",
    "sweep/cells/2d8570a193f6c9f2.json": "239caf4f280374c01daa0370b85476a238fba55356058b33d00e0772d50c76e3",
    "sweep/cells/2fd76abf36fec501.json": "23dafb92b33c82c118478c4d683063f37341dfc530ef8a6cbfecad5674b7a25e",
    "sweep/cells/36eaad71160732e3.json": "3df09368bda61ceac69fbcb1c319d9c26cbd58b9c6e298fba07e196a633d48e0",
    "sweep/cells/3a54531dc85015e7.json": "aa56c9cc81e9dd2fd3878258488e47e236e56582225d8bef3e758a9cf7ed7415",
    "sweep/cells/46615aea673feb06.json": "a35ed134a12453236a08a5404d327ba5ebf07fe76281b9e92082934f8f425a46",
    "sweep/cells/5e74663830ace9d4.json": "2438723019b6c1999a95c434f304ef3cba415c768e8a68987f2a39ae7be72fe6",
    "sweep/cells/648ec471c97039dd.json": "dc9f08aaa84943371a1c3b53219ca71ca19e45acc98ffac831d17e82dd78b5fc",
    "sweep/cells/7c580e718c3c4e1c.json": "3a0c9b39878808b2fbbecbbb07dc3f167ddf06735c0d9924d615889435ba404e",
    "sweep/cells/9be0945c4f2ba928.json": "bbad46f5d1a81e9285ce7e721c193693c23c39d4b1fdc0c1d59467496135de24",
    "sweep/cells/b6b952e70ee5a150.json": "73b53c67997cc4b7c4cb88af14d5a4e62e8d61c93fb83aa23614ad67534a2697",
    "sweep/cells/cf5272d183bb7e98.json": "83e9580f668cc83690eaf44a8eb042075dc7c2a67d0f53087744a9ae81fe804f",
    "sweep/cells/d58a23f110a1a025.json": "97d9909bb380f382791607014a70940cd49e55e9f12b794d5c349d8a9d5c830b",
    "sweep/config_resolved.json": "f7aff656c089d19252ac7dbe4579e2eb004da72983321abf8179ef5fe76a0ba2",
    "sweep/fit.json": "0811193636c608b314c79578953487d305948b7e39dfe50e5b3eeb706e563dbb",
    "sweep/manifest.json": "46893195d40371e6dd4449ecf08d1fa90a30c1313fffbca7ec62eaa9e85b6875",
    "sweep/risk_curve.csv": "47021ca4c8cdac2ee18c57093328fdfc781dc2c5e214443a7e592af7af8c4d5b",
    "sweep/scaling_axis.dat": "7248a4b1858e6678562d6cc8347c9723db6020e5c9ada499868ae24892cf109e",
    "train/checkpoint.json": "c6fe09a2993015b26275acc4e94467f293bd6e73a8cee5f2abe371ff045d3d97",
    "train/config_resolved.json": "2a034ecd56ecc1a1f96cc018f07538760c72c20b8dbe897320ae476bca098795",
    "train/losses.csv": "ae000ff57e816f947db007febc3b0b4a7febbc9809976878b13ebcb74a256c29",
    "train/metrics.json": "914d51c0ba8c9238caeab39c2e7614633e9b82a51f22dc7e711200db7947ef0e",
    "train_blocks/checkpoint.json": "48ce0eefb6a72c93a3bcd5b06a35fd7d23339cb85dcff582dc5de311f9510e38",
    "train_blocks/config_resolved.json": "455cb816f8ca05d82ff83fffd048d0f80861a67b1cfca78faede71f138a6bce7",
    "train_blocks/losses.csv": "7818238a1212b19ff6eee33d741a446f180f4bdad231e8579a0a4ba73069a003",
    "train_blocks/metrics.json": "1f7ac5d64481dd94f207c8d08733d63a6fa61254d078f1eff0d7a70341956196",
    "train_tanh/checkpoint.json": "4a41f38b4a404d17a2836686871d3843cb632f1b912b5adb1967d9a7a9d5b6f4",
    "train_tanh/config_resolved.json": "830f8046a128d008f432e57ecca10ad4a8feeccee77bb9fc3b2b03cd80f999cb",
    "train_tanh/losses.csv": "0c2e20e8edcde710219c0e99c9599a81f93865f80f9af9c5cf8b0d44c7b85def",
    "train_tanh/metrics.json": "18f8b46e4a26f29488bb70737497f34c2952fac11f2feb76c3396c8b476ba25f",
    "gen --seed 3 --n-tokens 100": "2d849937866bd1ede2c4d8988f3ab527d2472eef4562a04e2926cfdc8e34f6ee",
    "verify --verbose": "a1c196729f6b041bdb670fe651b524e01631aee3e1345402e3f8717b4e97cd6b",
}

# sha256 of model._score_rows' pred then mass bytes, for StudentModel.init
# seed 5 on 1,500 reduced-profile validation rows drawn at seed 5
PINNED_ROWS = "f0e1f8c12825c2dda4c894c029c94466c2552ec12cae975e98812bcd32b269e0"


def _build_differs() -> str | None:
    """Why this build may not reproduce the digests, or None."""
    have = f"Python {platform.python_version()}, numpy {np.__version__}"
    if have == "Python 3.11.7, numpy 2.4.6":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] == "scipy-openblas" and blas["version"].startswith("0.3.31."):
            return None
        have += f" and {blas['name']} {blas['version']}"
    return f"digests were taken with {PINNED_WITH}; this run has {have}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    reason = _build_differs()
    if reason is not None:
        pytest.skip(reason)
    monkeypatch.delenv(ENV_SEED, raising=False)
    # the runs write into runs/, beside the config file, which is not digested
    (tmp_path / "tanh.json").write_text('{"student": {"activation": "tanh"}}')
    runs = tmp_path / "runs"
    runs.mkdir()
    monkeypatch.chdir(runs)
    for argv in COMMANDS:
        assert main(argv) == 0
    got = {path.relative_to(runs).as_posix(): _sha(path.read_bytes())
           for path in sorted(runs.rglob("*")) if path.is_file()}
    capsys.readouterr()
    assert main(["gen", "--seed", "3", "--n-tokens", "100"]) == 0
    got["gen --seed 3 --n-tokens 100"] = _sha(capsys.readouterr().out.encode())
    assert main(["verify", "--verbose"]) == 0
    # each suite's line ends in its wall time, e.g. "PASS     0.02s"
    out = re.sub(r" +[0-9.]+s$", "", capsys.readouterr().out, flags=re.M)
    got["verify --verbose"] = _sha(out.encode())
    assert got == PINNED


def test_scored_rows_match_pinned_digest():
    reason = _build_differs()
    if reason is not None:
        pytest.skip(reason)
    cfg = ExperimentConfig(n_tokens=1000)
    data = _draw(cfg.spectrum(1.0), cfg, np.random.default_rng(5), 1500)[0]
    # each query tag's rows span several scoring blocks
    assert np.unique(data.queries[:, 1], return_counts=True)[1].min() > 4 * _BLOCK
    b = _block_views(_layout(cfg.student), StudentModel.init(cfg.student, 5).params[None])
    pred, mass, _ = _score_rows(b, cfg.student, data.atoms, data.queries, data.counts)
    assert _sha(pred.tobytes() + mass.tobytes()) == PINNED_ROWS
