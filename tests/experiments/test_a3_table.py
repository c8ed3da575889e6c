"""Ablation A3 (paper §2.2, the forecaster bank) reproduces its table.

The adaptive chooser's near-best-everywhere claim is recorded in
``benchmarks/out_fullscale/ablation_a3_forecasters.txt``. Regenerating
it must give the committed bytes, so a change to any forecaster or to
the bank's scoring that moves a served forecast shows up here as a diff.
"""

import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
COMMITTED = BENCHMARKS / "out_fullscale" / "ablation_a3_forecasters.txt"


def test_a3_table_matches_committed_copy_byte_for_byte():
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    from bench_ablation_forecasters import a3_table

    table, _, _ = a3_table()
    # save_artifact writes the table plus one newline.
    assert (table + "\n").encode("utf-8") == COMMITTED.read_bytes()
