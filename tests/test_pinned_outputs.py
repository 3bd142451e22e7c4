"""Byte identity as a check: sha256 digests of the outputs that a change to
the package's arithmetic or layout must leave alone.

The outputs are the reduced sweep's bundle and cell files, the train
artifacts, gen's stdout and verify --verbose's stdout with the per-suite
seconds stripped.  Criterion 9 compares a serial with a parallel sweep of
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

PINNED_WITH = "Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31"

COMMANDS = (
    ["sweep", "--profile", "reduced", "--n", "4,8,16", "--seeds", "2",
     "--jobs", "1", "--out", "sweep"],
    ["train", "--profile", "reduced", "--n-train", "64", "--out", "train"],
)

PINNED = {
    "sweep/attention_stats.csv": "838898650c3acb4bfec42ab59137a354ba14ce92b8786b4dd2bd1f56365b5f0a",
    "sweep/cells/02bed199dd27bcf5.json": "dde0111cf612a1e07bad40c7d217fb70e9cfd11fcdfebd15ae6b6c82a071ea8f",
    "sweep/cells/06b6b75422dcdbe6.json": "a4cd7b506e6bbbf4b01dbcca812aebb60b0bbfc6a1f466977d449f28cf0ed231",
    "sweep/cells/1d487996262d6291.json": "1f7c19d0442ee62c7be9843af25d853d8c2d79927b41e3fc93837ce0643fc199",
    "sweep/cells/23f75c49496430bb.json": "e043a24d09853208e46d35b47a6aed43dd3c933d8862127552ea0ecd6014f346",
    "sweep/cells/2771109f52866334.json": "6f2e7b5fb75fbcf7fe6488e16ea0bee411fce179b63526763603ae74ea94e962",
    "sweep/cells/2b62df7c2c0fff9f.json": "9c4aa219b5c38c5e6ed148a0fc2a3b7c9905c975eb288158363a7420f60524b8",
    "sweep/cells/2d8570a193f6c9f2.json": "00f31e36e265e708e88b3d7f621e488bc21e5508b87e6fe5df3ad82d0dd35c25",
    "sweep/cells/2fd76abf36fec501.json": "51a7f5bb6325761613664f24b571d81518ea5b778dd4c1bf0e61fd88ada4ccb8",
    "sweep/cells/36eaad71160732e3.json": "defe8008e3fae4c05123547c72dad102e3f746774b1d5105253efd7eb57441c8",
    "sweep/cells/3a54531dc85015e7.json": "f4d9e02b2790082689dc187e5a5f18b99abfb9cd1500b3ef7dbc7c5a9f5a8229",
    "sweep/cells/46615aea673feb06.json": "bbf8cb1ce94cd7237bc047817900288576b5cc51187f0d37cb709fb0e3b74a22",
    "sweep/cells/5e74663830ace9d4.json": "b2a05c2c2fe83d04a8a0a8972a07f51c27dbc0556670b5609c01d6b134b7d167",
    "sweep/cells/648ec471c97039dd.json": "cb59da87890027e919172600619c70197dece6fc6598f561befe32395ba8a98c",
    "sweep/cells/7c580e718c3c4e1c.json": "adf35319b3282db25764acf7b87cf3aa7f214d781b999b6eef0b81588bcc530b",
    "sweep/cells/9be0945c4f2ba928.json": "fdc582a6e5bba30bea28a53fea911285b590f7ecbffd800f340e3a6fe1b56c9c",
    "sweep/cells/b6b952e70ee5a150.json": "886fd284e5174cee2ddfa5e21f09763543dfaa105c4201aac64551fc656e1134",
    "sweep/cells/cf5272d183bb7e98.json": "e3d3adf505f9d8714b24c7878318ae09336744d320389f94fe57187cfdd5e303",
    "sweep/cells/d58a23f110a1a025.json": "516ed143f732058178f822423422bdc6896f53204a4257d36f915660daed8a62",
    "sweep/config_resolved.json": "f7aff656c089d19252ac7dbe4579e2eb004da72983321abf8179ef5fe76a0ba2",
    "sweep/fit.json": "129a91bbef24d75f6f869c3f1276d05eb1f09e889468b595c6888c8b9b85ea5e",
    "sweep/manifest.json": "46893195d40371e6dd4449ecf08d1fa90a30c1313fffbca7ec62eaa9e85b6875",
    "sweep/risk_curve.csv": "de0c440b13ffd0b442467bdcea139b3e1280e3508e58cce54ff5d701f1c49d6a",
    "sweep/scaling_axis.dat": "f17532fbc1bbb80acc9b709c01ba775c6c483bebefaae4b54d229f90aa93f9d8",
    "train/checkpoint.json": "c6fe09a2993015b26275acc4e94467f293bd6e73a8cee5f2abe371ff045d3d97",
    "train/config_resolved.json": "2a034ecd56ecc1a1f96cc018f07538760c72c20b8dbe897320ae476bca098795",
    "train/losses.csv": "ae000ff57e816f947db007febc3b0b4a7febbc9809976878b13ebcb74a256c29",
    "train/metrics.json": "824adf6168c3a18535dd4dae0ab3acf45558482df927ae14ad2d700ad2d1fe0b",
    "gen --seed 3 --n-tokens 100": "2d849937866bd1ede2c4d8988f3ab527d2472eef4562a04e2926cfdc8e34f6ee",
    "verify --verbose": "a1c196729f6b041bdb670fe651b524e01631aee3e1345402e3f8717b4e97cd6b",
}


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
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == 0
    got = {path.relative_to(tmp_path).as_posix(): _sha(path.read_bytes())
           for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    capsys.readouterr()
    assert main(["gen", "--seed", "3", "--n-tokens", "100"]) == 0
    got["gen --seed 3 --n-tokens 100"] = _sha(capsys.readouterr().out.encode())
    assert main(["verify", "--verbose"]) == 0
    # each suite's line ends in its wall time, e.g. "PASS     0.02s"
    out = re.sub(r" +[0-9.]+s$", "", capsys.readouterr().out, flags=re.M)
    got["verify --verbose"] = _sha(out.encode())
    assert got == PINNED
