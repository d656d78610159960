"""CLI output pinned byte for byte against golden files.

The golden files hold the stdout of the runs in GOLDEN.  Regenerate them only
when an output change is intended, from the repository root:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
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


def regenerate() -> None:
    for name, argv in GOLDEN.items():
        status, text = run_cli(argv)
        if status != EXIT_OK:
            raise SystemExit(f"{name}: nbiotsim {' '.join(argv)} exited {status}")
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
