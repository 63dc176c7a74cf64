import hashlib
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_examples.py"


def _run(hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=300
    )


def test_output_does_not_depend_on_the_hash_seed():
    first, second = _run("1"), _run("2")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert "R={d'}: endo=33 transformed=32" in first.stdout
    assert "R={a'}: endo=33 transformed=30" in first.stdout


# sha256 of the script's stdout, recorded before the forbidden-cycle search
# flagged its own cycles as perfect.
REPRODUCE_STDOUT_SHA256 = "43fd7a0bbfca59d6784a7baf29335a31b70f600760c3c5ff5430965cc0304a2a"


def test_output_is_pinned():
    proc = _run("0")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == REPRODUCE_STDOUT_SHA256
