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
    "sweep/attention_stats.csv": "c343859795aedbd4f506ae9d6e803747fb59aca9f7cae44022cedf37d28635ff",
    "sweep/cells/02bed199dd27bcf5.json": "11cc067a500f32544d16aa4a9483f70cc9b1598caacd4c75b224e59afa42e82a",
    "sweep/cells/06b6b75422dcdbe6.json": "1f3c2c500fae40c4798617c2e341eea26f4074101737ced223ae26a977de38ec",
    "sweep/cells/1d487996262d6291.json": "31e4290e410669f2cbb86f553935abe11b85cf2a59ea620873fa2beba209aeed",
    "sweep/cells/23f75c49496430bb.json": "b9f1aa6e56341e485c97f70fc3375bddcb8781585b3dfc27189339d6c85716cd",
    "sweep/cells/2771109f52866334.json": "ca202d84382801b690e87658dfcc6441f4d9323ed254dbf20598f1773c398e85",
    "sweep/cells/2b62df7c2c0fff9f.json": "93110745c31c5a449008bc028699943bc0213625b2f03fe9c57e8af61dc16a3b",
    "sweep/cells/2d8570a193f6c9f2.json": "f0c7f7a0ee07796ce073cb07048b1f4ccf5b5bc4b66874ec8995bc88a342bd16",
    "sweep/cells/2fd76abf36fec501.json": "66d5fb6577155f643aca7b775f39c7a470354ff1218c2ad3bd321104e1d616ef",
    "sweep/cells/36eaad71160732e3.json": "58ab4b7ddbd67b18bc1696320261248e7c69d60216a301444849494f53a7b1c6",
    "sweep/cells/3a54531dc85015e7.json": "2ca703dc01b8db5b2cbaccc6ea5c298f610e7e815e3ea4f04c2a931999585406",
    "sweep/cells/46615aea673feb06.json": "a3b4c89788b8afff545aef556640348a6c05135c67f088e6bf1fede0b66fbb2c",
    "sweep/cells/5e74663830ace9d4.json": "3cb666b2e85d16af5f798a535f49bbc0456cd9735d3dffd0a351051e4f288f5f",
    "sweep/cells/648ec471c97039dd.json": "840864ca132ef07a5796d61a05c4c7e73e6ea59d84c6a70c0a218ff2aa569081",
    "sweep/cells/7c580e718c3c4e1c.json": "093eaac87c7fe1ee4a312f9bee7162e5730f0e03f2f9b95b61f2696b6dc10212",
    "sweep/cells/9be0945c4f2ba928.json": "fcd7de745b422ffd7fdb0c6ac5bce691ec6e9152c2fdbd87a69646451f3c6184",
    "sweep/cells/b6b952e70ee5a150.json": "6ef52b42dfbb314ef5491fd939983fb8cb0b77e3a1946a821253be422de9c1ec",
    "sweep/cells/cf5272d183bb7e98.json": "b027c0e1882ae83388358f34c74ab313509d9e45e98ae15a4fb6ab7fe1ede680",
    "sweep/cells/d58a23f110a1a025.json": "7221a7b0c29255d768b85a9eb0b35fffcd8c3f794988e67b2c1667fbd5936eb2",
    "sweep/config_resolved.json": "f7aff656c089d19252ac7dbe4579e2eb004da72983321abf8179ef5fe76a0ba2",
    "sweep/fit.json": "9bed19d923ca4db1edc180d5736ccd8ebf9fa875c0d933323c39805744b47a95",
    "sweep/manifest.json": "46893195d40371e6dd4449ecf08d1fa90a30c1313fffbca7ec62eaa9e85b6875",
    "sweep/risk_curve.csv": "765aa61de55342537ead35cb1a7a991cda7733b57c23b046f7245b460f6104eb",
    "sweep/scaling_axis.dat": "215853a0d7b162e8dfdd36e9ac89e70239e723fb0f4aa6d6cabb6951c75e83fa",
    "train/checkpoint.json": "ee24b53e65cd6cc9f0f05440a2ce5e158e3888338954049fda04ac43b1fd0927",
    "train/config_resolved.json": "2a034ecd56ecc1a1f96cc018f07538760c72c20b8dbe897320ae476bca098795",
    "train/losses.csv": "85ecee71438fb77b4fcff70d34b8ded44a9cfe0ba745fda0c51c46aa660c11a9",
    "train/metrics.json": "5a41a261343efe118794ceaa278dd79c72ccdd7401e48cfe11b20599152deaf7",
    "gen --seed 3 --n-tokens 100": "30f8dee0a6e79d209aecc2f79f6a1ca4f45c1c1b0abdb62d36af67f8d400ba35",
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
