"""One journal: the job store runs one storage path live and on the twin.

A finished job is a byte range of a :class:`repro.obs.recordlog.RecordLog`
whether its bytes are in a file (the live gateway) or in memory (the
simulated twin, and a queue built without a journal), so the twin's
pinned digests exercise the code production serves from.
"""

import ast
import pathlib

from repro.control import FileJournal, MemoryJournal, WorkQueue
from repro.obs.recordlog import RecordLog

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_the_work_queue_never_asks_which_journal_it_has():
    tree = ast.parse((SRC / "control" / "workqueue.py").read_text(
        encoding="utf-8"))
    forks = [f"{node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "isinstance"
             and any(word in ast.unparse(node).lower()
                     for word in ("journal", "recordlog"))]
    lines = [node.lineno for node in ast.walk(tree)
             if getattr(node, "attr", getattr(node, "id", None)) == "_lines"]
    assert (forks, lines) == ([], [])


def test_memory_journal_is_the_record_log_in_memory():
    assert FileJournal is RecordLog
    for log in (MemoryJournal(), WorkQueue().journal):
        assert type(log) is RecordLog and log.path is None


def _journal_classes(path):
    """Classes named like a journal, or with a journal's batch append."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and (
                "journal" in node.name.lower()
                or any(isinstance(item, ast.FunctionDef)
                       and item.name == "append_many" for item in node.body)):
            yield node.name


def test_record_log_is_the_only_journal_class_in_src():
    classes = [f"{path.relative_to(SRC).as_posix()}:{name}"
               for path in sorted(SRC.rglob("*.py"))
               for name in _journal_classes(path)]
    assert classes == ["obs/recordlog.py:RecordLog"]
