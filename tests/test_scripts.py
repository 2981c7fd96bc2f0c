"""The documented scripts under scripts/ run end to end at toy size.

Each script runs in its own process, as the README shows it, with `src`
on PYTHONPATH and BLAS on one thread, inside a temporary directory. The
test checks the exit code and the script's closing line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_gan_smoke.py": (
        ["--steps", "2", "--n-train", "8", "--batch-size", "4", "--base-channels", "8",
         "--samples", "4", "--out", "smoke"],
        r"wrote 4 samples and history under smoke/",
    ),
    "run_noise_comparison.py": (
        ["--seeds", "0", "--image-size", "32", "--epochs", "1", "--n-train", "10",
         "--n-test", "4", "--batch-size", "4"],
        r"mean drop [+-]\d\.\d{4} over 1 seeds",
    ),
    "run_synthetic_benchmark.py": (
        ["--out", "bench", "--image-size", "32", "--epochs", "1", "--n-train", "10",
         "--n-test", "4", "--batch-size", "4"],
        r"table: bench/comparison\.csv",
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_at_toy_size(script, tmp_path):
    args, last_line = SCRIPTS[script]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert re.fullmatch(last_line, proc.stdout.splitlines()[-1])
