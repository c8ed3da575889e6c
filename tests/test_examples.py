"""Smoke tests: the runnable examples must stay runnable.

The fast examples are executed end-to-end as subprocesses; the long ones
(full topology replays) are compile-checked — their logic is covered by
the integration suites.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST = ["quickstart.py", "forecasting_demo.py", "gnet_mining.py",
        "pet_reconstruction.py"]
ALL = sorted(p.name for p in EXAMPLES.glob("*.py"))


def test_expected_examples_present():
    assert set(ALL) >= {
        "quickstart.py",
        "ramsey_search.py",
        "forecasting_demo.py",
        "gossip_cluster.py",
        "sc98_replay.py",
        "pet_reconstruction.py",
        "gnet_mining.py",
    }


@pytest.mark.parametrize("name", ALL)
def test_example_compiles(name):
    py_compile.compile(str(EXAMPLES / name), doraise=True)


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
