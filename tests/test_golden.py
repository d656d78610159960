"""CLI output pinned byte for byte against golden files.

The golden files hold the stdout of the runs in GOLDEN.  Regenerate them only
when an output change is intended, from the repository root:

    PYTHONPATH=src python -m tests.test_golden

To check the goldens against other interpreters or an installed package, run
every GOLDEN argv through each given command and compare the bytes (exit 1 on
any difference), for example:

    PYTHONPATH=src python -m tests.test_golden --check "python3.12 -m nbiotsim.cli"
"""

import contextlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nbiotsim.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PAGING_CFG = str(GOLDEN_DIR / "paging.cfg")
EXTREME_CFG = str(GOLDEN_DIR / "extreme.cfg")

GOLDEN = {
    "lifetime.csv": ["lifetime"],
    "lifetime.dat": ["lifetime", "--format", "plot-data"],
    "capacity.csv": ["capacity"],
    "capacity.dat": ["capacity", "--format", "plot-data"],
    "lifetime_paging.csv": ["lifetime", "--scenario", PAGING_CFG],
    "lifetime_extreme.csv": ["lifetime", "--scenario", EXTREME_CFG, "--sweep",
                             "iat=3600,12345.6789,86400,604800,1080000"],
}


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    status, text = run_cli(GOLDEN[name])
    assert status == EXIT_OK
    assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


def test_check_flags_every_differing_run(capsys):
    # a command that prints nothing differs on every golden, the CLI on none
    python = shlex.quote(sys.executable)
    assert check([f"{python} -m nbiotsim.cli", f"{python} -c pass"]) == len(GOLDEN)
    assert capsys.readouterr().out.count("DIFFERS") == len(GOLDEN)


def regenerate() -> None:
    for name, argv in GOLDEN.items():
        status, text = run_cli(argv)
        if status != EXIT_OK:
            raise SystemExit(f"{name}: nbiotsim {' '.join(argv)} exited {status}")
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))


def check(commands) -> int:
    """Run each GOLDEN argv through each command; the number of runs whose
    stdout differs from its golden file or whose exit status is not EXIT_OK."""
    failures = 0
    for command in commands:
        for name, argv in GOLDEN.items():
            run = subprocess.run([*shlex.split(command), *argv], capture_output=True)
            same = run.returncode == EXIT_OK and run.stdout == (GOLDEN_DIR / name).read_bytes()
            print(f"{'ok' if same else 'DIFFERS'}  {name}  {command}")
            failures += not same
    return failures


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        if not sys.argv[2:]:
            raise SystemExit("usage: python -m tests.test_golden --check COMMAND...")
        sys.exit(1 if check(sys.argv[2:]) else 0)
    regenerate()
