"""The paper's claims (``repro.experiments.claims``): every claim holds
at its reduced size, the committed full-scale run is what its
predicates say, and EXPERIMENTS.md's tables are rendered from it."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.experiments import claims

ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED = ROOT / "benchmarks" / "out_fullscale"
BEGIN, END = "<!-- claims -->", "<!-- /claims -->"


@pytest.fixture(scope="module")
def reduced():
    doc = claims.run_claims(reduced=True)
    return {record["id"]: record for record in doc["claims"]}


@pytest.fixture(scope="module")
def committed():
    return json.loads((COMMITTED / "claims.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds_at_its_reduced_size(reduced, claim):
    record = reduced[claim.id]
    assert record["holds"], [k for k, ok in record["checks"].items() if not ok]


def test_a_reduced_size_cuts_only_the_scale_or_the_seed_count():
    for claim in claims.CLAIMS:
        assert set(claim.reduced) <= {"scale", "seed"}, claim.id
        if "seed" in claim.reduced:
            assert set(claim.reduced["seed"]) < set(claim.seed), claim.id


@pytest.mark.parametrize("values", [
    {"x": math.nan}, {"x": None}, {"x": []}, {"x": {}},
    {"x": {"y": [1.0, math.nan]}}, {}])
def test_a_nan_none_or_empty_run_fails_its_claim(values):
    claim = claims.Claim("X", "§0", "-", run=lambda scale, seed: values,
                         holds=lambda v: {"vacuous": True}, show=str, seed=0)
    (record,) = claims.run_claims(claims=[claim])["claims"]
    assert not record["holds"]


def test_a_predicate_that_cannot_evaluate_fails_its_claim():
    claim = claims.Claim("X", "§0", "-", run=lambda scale, seed: {"a": 1},
                         holds=lambda v: {"b > 0": v["b"] > 0}, show=str,
                         seed=0)
    (record,) = claims.run_claims(claims=[claim])["claims"]
    assert not record["holds"]


def test_committed_run_holds_by_the_current_predicates(committed):
    assert committed["host_cpus"] >= 1
    assert [r["id"] for r in committed["claims"]] == [c.id for c in claims.CLAIMS]
    for claim, record in zip(claims.CLAIMS, committed["claims"]):
        assert claims._judge(claim, record["values"]) == record["checks"], claim.id
        assert record["holds"], claim.id
    f2 = committed["claims"][0]
    assert (f2["scale"], f2["seed"]) == (1.0, 1998)


def test_experiments_tables_are_the_committed_run(committed):
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text.split(BEGIN, 1)[1].split(END, 1)[0].strip("\n")
    expected = claims.render_tables(committed)
    if block != expected:
        pytest.fail("EXPERIMENTS.md's claims block is not the committed run; "
                    f"paste this between {BEGIN} and {END}:\n\n{expected}",
                    pytrace=False)


def test_a3_table_matches_committed_copy_byte_for_byte():
    # A change to any forecaster or to the bank's scoring that moves a
    # served forecast shows up here as a diff.
    table = claims.a3_table()[0]
    expected = (COMMITTED / "ablation_a3_forecasters.txt").read_bytes()
    assert (table + "\n").encode("utf-8") == expected


def test_repro_claims_sets_only_scale_and_out():
    args = vars(build_parser().parse_args(["claims"]))
    assert sorted(set(args) - {"command", "func"}) == ["out", "scale"]


def test_importing_the_experiments_package_leaves_claims_unloaded():
    code = ("import sys, repro.experiments as e; e.SC98Config; "
            "assert 'repro.experiments.claims' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
