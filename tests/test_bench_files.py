"""Every repo-root ``BENCH_*.json`` has the one shape ``common.finish``
writes, and names a gate script that exists."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_seven_gates_each_have_a_file():
    assert [path.stem[len("BENCH_"):] for path in FILES] == sorted(
        ["net", "obs", "gateway", "explore", "gossip", "parallel",
         "kernels"])


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_has_the_one_shape(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(doc) == ["bench", "config", "floors", "host_cpus", "rows"]
    assert path.name == f"BENCH_{doc['bench']}.json"
    assert (ROOT / "benchmarks" / f"bench_{doc['bench']}.py").is_file()
    assert doc["rows"]
    for row in doc["rows"]:
        assert isinstance(row.get("cell"), str), row
        assert not any(isinstance(value, dict) for value in row.values()), row
