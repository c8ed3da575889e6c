"""The live world's invariant checklist, on hand-built reports.

``check_invariants`` is the verdict of every live run. The message
accounting rule has two sides that a real run only shows one of at a
time: with no chaos and no restarts, more receives than sends is a
violation; after a SIGKILL the dead incarnation's unshipped send counts
are gone, so the same totals are tolerated.
"""

from repro.live.harness import LiveReport, check_invariants

OVERCOUNT = "received more messages than were sent"


def _report(sent, recv, killed=False, restarts=0):
    nodes = {
        "cli0": {"role": "client", "reports": 3, "restarts": restarts},
        "sched0": {"role": "scheduler", "reports": 3,
                   "stats": {"units_assigned": 2, "units_completed": 1,
                             "reaps": 1}},
    }
    chaos = [{"t": 1.0, "node": "cli0", "pid": 1}] if killed else []
    metrics = {"counters": {"msg.sent{mtype=SCH_HELLO}": sent,
                            "msg.recv{mtype=SCH_HELLO}": recv,
                            "msg.sent_bytes": 10**6}}
    return LiveReport(duration=8.0, topology={}, nodes=nodes,
                      counter_examples=[], verify_failures=[], chaos=chaos,
                      metrics=metrics, collector={})


def test_clean_run_flags_more_receives_than_sends():
    violations = check_invariants(_report(sent=10, recv=11))
    assert [v for v in violations if OVERCOUNT in v] == [
        "received more messages than were sent (11 > 10)"]


def test_clean_run_with_balanced_counts_holds():
    assert check_invariants(_report(sent=11, recv=11)) == []
    assert check_invariants(_report(sent=12, recv=11)) == []


def test_overcount_tolerated_after_a_kill():
    assert check_invariants(_report(sent=10, recv=11, killed=True,
                                    restarts=1)) == []


def test_overcount_tolerated_after_an_unplanned_restart():
    assert check_invariants(_report(sent=10, recv=11, restarts=1)) == []
