"""The wrappers in scripts/ run end to end with their smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "chain_fidelity_scan.py",
            ["--n-max", "2"],
            ["christandl-02", "uniform-02"],
        ),
        ("witness_certificates.py", ["--n-max", "2", "--seeds", "0"], ["witness-n2"]),
    ],
)
def test_script_runs_and_writes_its_outputs(script, args, outputs, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        for ext in (".json", ".csv"):
            assert (tmp_path / (name + ext)).is_file(), name + ext
