"""Tests for CSV/JSON export and the command-line interface."""

import csv
import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments import SC98Config, SC98Results, build_sc98
from repro.experiments.export import (
    headlines_json,
    hosts_csv,
    rates_csv,
    write_results,
)
from repro.experiments.metrics import SeriesBundle


@pytest.fixture(scope="module")
def tiny_results():
    cfg = SC98Config(scale=0.08, duration=1800.0, seed=4)
    world = build_sc98(cfg)
    return world.run()


def test_rates_csv_well_formed(tiny_results):
    text = rates_csv(tiny_results)
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    assert header[:3] == ["offset_s", "clock", "total_iops"]
    assert len(data) == tiny_results.config.n_buckets
    assert data[0][1] == "23:36:56"
    # Total column equals the sum of the infra columns, row by row.
    for row in data:
        total = float(row[2])
        parts = sum(float(x) for x in row[3:])
        # %.6g formatting rounds each column independently.
        assert total == pytest.approx(parts, rel=1e-3, abs=1e-3)


def test_hosts_csv_well_formed(tiny_results):
    rows = list(csv.reader(io.StringIO(hosts_csv(tiny_results))))
    assert rows[0][0] == "offset_s"
    assert set(rows[0][2:]) == {"unix", "condor", "nt", "globus", "legion",
                                "netsolve", "java"}
    assert len(rows) == 1 + tiny_results.config.n_buckets


def test_headlines_json_shape(tiny_results):
    payload = json.loads(headlines_json(tiny_results))
    assert payload["paper"]["peak"] == 2.39e9
    assert payload["run"]["scale"] == tiny_results.config.scale
    assert "peak_clock" in payload["run"]


def test_write_results_creates_files(tiny_results, tmp_path):
    paths = write_results(tiny_results, str(tmp_path / "export"))
    assert len(paths) == 3
    for path in paths:
        assert (tmp_path / "export").exists()
        with open(path, encoding="utf-8") as fh:
            assert fh.read().strip()


# ---------------------------------------------------------------- CLI


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_benchmarks_are_not_cli_commands(capsys):
    # The transport and scaling benchmarks are scripts under benchmarks/.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--net"])
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "EveryWare" in out
    assert "repro.ramsey" in out
    inventory = out.split("app kinds (client-side execution registry):")[1]
    kinds = {line.split()[0] for line in inventory.splitlines()
             if line.startswith("  ")}
    # (Other tests may have registered kinds of their own.)
    assert {"explore.eval", "gnet.*", "pet.*", "ramsey"} <= kinds


def test_cli_pet_reconstructs_on_the_twin(capsys):
    assert main(["pet", "--size", "24", "--angles", "16",
                 "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "submitting 8 backprojection jobs to 2 clients" in out
    assert float(out.rsplit("phantom correlation", 1)[1]) > 0.8


def test_cli_ramsey_finds_witness(capsys):
    assert main(["ramsey", "--k", "5", "--n", "3", "--steps", "3000"]) == 0
    out = capsys.readouterr().out
    assert "counter-example FOUND" in out
    assert "verified: True" in out


def test_cli_ramsey_reports_failure_exit_code(capsys):
    # K_6/n=3 is unsolvable: budget exhausts, exit code 1.
    assert main(["ramsey", "--k", "6", "--n", "3", "--steps", "300"]) == 1
    out = capsys.readouterr().out
    assert "no counter-example" in out


def test_cli_sc98_with_export(tmp_path, capsys):
    code = main(["sc98", "--scale", "0.08", "--seed", "4",
                 "--out", str(tmp_path / "x")])
    assert code == 0
    out = capsys.readouterr().out
    assert "Headline numbers" in out
    assert (tmp_path / "x" / "rates.csv").exists()
    assert (tmp_path / "x" / "headlines.json").exists()
