#!/usr/bin/env python
"""Design invariants, checked by pattern over the source tree.

Each simplification of the engine left one mechanism where there were
two; the guards below keep the deleted copy from coming back under its
old name and keep a mechanism with one home from growing a second.
Every check is one ``grep -rnE`` over some paths of the tree: a regular
expression searched line by line in every text file under them (binary
files, such as bytecode caches, are skipped), minus the output lines an
``ignore`` expression drops — matched, like a ``grep -v`` after the
search, against the ``path:line:text`` form grep prints.  POSIX classes
are spelt in Python: ``[^._[:alnum:]`]`` is ``[^.\\w`]``.

Each check also carries a ``sample``: a path and one line there that it
must reject.  ``tests/test_invariants.py`` plants every sample in an
empty tree to show that no guard is vacuous.

Usage::

    python tools/check_invariants.py [ROOT]

checks ROOT (default: the repository holding this file), prints every
violation under its guard's name and exits 1 if there is one.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterator, List, NamedTuple, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The trees most guards search.
EVERYWHERE = ("src", "tests", "docs", "benchmarks")


class Check(NamedTuple):
    guard: str
    message: str
    pattern: str
    paths: Tuple[str, ...]
    sample: Tuple[str, str]
    ignore: Optional[str] = None
    #: A directory name whose subtrees are skipped (grep --exclude-dir).
    exclude_dir: Optional[str] = None


CHECKS = [
    # engine/diskfile.py is the only engine module allowed to pickle,
    # checksum a frame or atomically replace a file; the next on-disk
    # format has to go through it, not grow beside it.
    Check(
        "One disk-file module (no second serialiser)",
        "pickle / zlib.crc32 / os.replace outside engine/diskfile.py",
        r"^\s*(import|from) pickle|zlib\.crc32|os\.replace",
        ("src/repro/engine",),
        ("src/repro/engine/planted.py", "import pickle"),
        ignore=r"^src/repro/engine/diskfile\.py:",
    ),
    # INSERT/UPDATE append through one body with one unique check,
    # UPDATE/DELETE find their rows through the planner's access path,
    # and the planner has no switches.
    Check(
        "One write path, one planner (no second copy)",
        "a deleted second write path or planner switch is back",
        r"PlannerOptions|planner_options|insert_many|execute_insert_batch"
        r"|_check_unique_batch|after_mutation|_matching_versions",
        EVERYWHERE,
        ("docs/planted.md", "table.insert_many(rows)"),
    ),
    # Queries, DML and CALL compile once, through Session.compile, for
    # execution, prepare and the SQLChecker alike, and the plan cache is
    # always on.  benchmarks/e2e is skipped: its harness is kept
    # byte-stable across revisions and a comment there still names the
    # old keyword.
    Check(
        "One compile step (no checker copy, no cache switch)",
        "a deleted compile-step copy or plan-cache switch is back",
        r"_analyse_insert|_analyse_update|_analyse_delete|_analyse_call"
        r"|_apply_dml|plan_cache_size",
        EVERYWHERE,
        ("tests/planted.py", "Database(plan_cache_size=0)"),
        exclude_dir="e2e",
    ),
    Check(
        "One compile step (no checker copy, no cache switch)",
        "procedures/ compiles expressions of its own",
        r"ExpressionCompiler\(",
        ("src/repro/procedures",),
        ("src/repro/procedures/planted.py",
         "compiler = ExpressionCompiler(RowShape([]), session)"),
    ),
    Check(
        "One compile step (no checker copy, no cache switch)",
        "the SQLChecker looks routines up itself",
        r"get_routine\(",
        ("src/repro/translator/checker.py",),
        ("src/repro/translator/checker.py",
         "routine = catalog.get_routine(name)"),
    ),
    # A session's snapshot, write list (the undo log), savepoints and
    # WAL transaction id are one object, and Session.in_transaction is
    # the only "in a transaction?" answer.
    Check(
        "One transaction per session (no parallel state)",
        "a deleted piece of parallel transaction state is back",
        r"TransactionLog|_RemoteTransactionLog|transaction_log"
        r"|_durable_txn|_end_mvcc|_commit_durable|_abort_durable",
        EVERYWHERE,
        ("benchmarks/planted.py", "session._durable_txn = None"),
    ),
    # Every durable database checkpoints through the LSM store; the
    # whole-image store, its engine table, its fault site and the
    # duplicate pause histogram must not come back.
    Check(
        "One checkpoint store (no image rewrite path)",
        "a deleted second checkpoint store is back",
        r"SnapshotStore|_STORES|wal\.checkpoint\.install|lsm\.stall_ms",
        ("src",),
        ("src/repro/planted.py", "store = SnapshotStore(path)"),
    ),
    # Expressions and operator loops run as generated Python source
    # that binds every SQL value by name; engine/expressions.py is the
    # only engine module that calls compile() or exec(), and the
    # per-node closure builders the emitter table replaced must not
    # come back.
    Check(
        "One emitter (SQL never becomes code elsewhere)",
        "compile()/exec() outside engine/expressions.py",
        r"(^|[^.\w`])(compile|exec)\(",
        ("src/repro/engine",),
        ("src/repro/engine/planted.py", "exec(source, namespace)"),
        ignore=r"def (compile|exec)\(|^src/repro/engine/expressions\.py:",
    ),
    Check(
        "One emitter (SQL never becomes code elsewhere)",
        "a per-node closure builder is back",
        r"_compile_[A-Z]",
        EVERYWHERE,
        ("src/repro/planted.py", "def _compile_Binary(node):"),
    ),
    # Snapshot visibility is one source fragment, mvcc.VISIBLE, inlined
    # into every scan loop and generating Transaction.sees; nothing
    # outside engine/mvcc.py tests rows one call at a time.  Sort,
    # top-N and the hash-join build run inside their input's loop: no
    # pipeline breaker pulls a whole input through rows().
    Check(
        "One visibility rule (scans inline it)",
        "Transaction.sees called outside engine/mvcc.py",
        r"\.sees\(",
        ("src",),
        ("src/repro/planted.py", "if txn.sees(version):"),
        ignore=r"^src/repro/engine/mvcc\.py:",
    ),
    Check(
        "One visibility rule (scans inline it)",
        "a deleted per-row visibility helper is back",
        r"_visible\b|_ROW = attrgetter",
        ("src",),
        ("src/repro/planted.py", "rows = _visible(txn, versions)"),
    ),
    Check(
        "One visibility rule (scans inline it)",
        "a pipeline breaker pulls its input through rows()",
        "|".join(re.escape(text) for text in (
            "heapq.nsmallest(", "list(self.child.rows(",
            "list(self.right.rows(",
        )),
        ("src/repro/engine/executor.py",),
        ("src/repro/engine/executor.py",
         "rows = list(self.child.rows(session, params))"),
    ),
    # server/protocol.py is the only code that packs or unpacks frame
    # bytes: values encode through the _ENCODERS type table, rows as
    # column-typed pages, and decode by position through the _DECODERS
    # tag table.
    Check(
        "One wire codec (a type table out, a tag table in)",
        "the replaced wire codec is back",
        r"_Decoder\b|_encode_value",
        ("src", "tests", "docs"),
        ("tests/planted.py", "frame = _encode_value(value)"),
    ),
    Check(
        "One wire codec (a type table out, a tag table in)",
        "the replaced wire codec is back",
        r"isinstance\(value",
        ("src/repro/server/protocol.py",),
        ("src/repro/server/protocol.py", "if isinstance(value, int):"),
    ),
    Check(
        "One wire codec (a type table out, a tag table in)",
        "frame bytes packed outside server/protocol.py",
        r"\bstruct\b|from_bytes|to_bytes",
        ("src/repro/server", "src/repro/dbapi"),
        ("src/repro/dbapi/planted.py", "size = len(body).to_bytes(4)"),
        ignore=r"^src/repro/server/protocol\.py:",
    ),
    # A user CALL holds the engine lock shared, as a function under a
    # SELECT does: DDL or a sqlj.* CALL from a routine body is refused
    # (SQLSTATE 38003), so the lock never upgrades a shared hold and its
    # upgrade machinery must not come back.
    Check(
        "One lock regime for a routine body (no read→write upgrade)",
        "the deleted read-to-write lock upgrade is back",
        r"_upgrade_locked|_suspended_read_depth|_upgrader|held_exclusive",
        ("src",),
        ("src/repro/engine/planted.py", "self._upgrade_locked(me)"),
    ),
    # The snapshot test is written once, as mvcc.VISIBLE; every loop
    # that tests a version (scans, the index nested-loop join's probes)
    # interpolates it, so a copy of its text is a second rule.
    Check(
        "One visibility rule (scans inline it)",
        "the visibility test's text outside engine/mvcc.py",
        r"xmax != me|end > snap|begin <= snap",
        ("src",),
        ("src/repro/engine/planted.py",
         "if v.begin <= snap and v.xmax is None:"),
        ignore=r"^src/repro/engine/mvcc\.py:",
    ),
    # A statement's accounting — the statistics bracket and the record
    # that closes it, with the slow-query log — is done by the session's
    # statement envelope: another execution path must reuse it, not
    # grow its own.
    Check(
        "One statement accounting (the session's envelope)",
        "a statistics bracket or statement record outside "
        "engine/database.py",
        r"_record_statement\(|_stats\.begin\(",
        ("src",),
        ("src/repro/engine/planted.py", "context = _stats.begin()"),
        ignore=r"^src/repro/engine/database\.py:",
    ),
    # Every statement runs through Session._run_statement, traced or
    # not.  A lean read path once forked beside it, chosen by a flag on
    # the plan, a count of routines compiled and whether tracing was
    # on, so a trace timed a path untraced runs never took.
    Check(
        "One statement envelope (no lean fork)",
        "a deleted second statement path is back",
        r"_run_read|_run_plan|_execute_parsed|routines_compiled|\.lean\b",
        ("src", "tests", "docs"),
        ("src/repro/engine/planted.py", "if entry.lean:"),
    ),
    # Every INSERT, UPDATE and DELETE runs as one generated function
    # (DmlPlan.run, emitted through expressions.generate): the closures
    # that interpreted a write row by row — one Env per row, a coerce
    # and store call per column, a NOT NULL call per column, a target
    # function per parameter row — were deleted, not kept as a fallback,
    # and so were the claim/append API (RowStore) and the target-version
    # method (_Scan.versions) that ran the same rules beside it.
    Check(
        "One DML path (no interpreted row loop)",
        "a deleted interpreted write step is back",
        r"_target_rows|\bdef (produce|build|targets|versions)\("
        r"|_check_not_null|store_value\(|_assign\(|Env\(version\.row"
        r"|\bclass RowStore\b",
        ("src",),
        ("src/repro/engine/planted.py",
         "def produce(env: Env) -> List[List[Any]]:"),
    ),
]


def _files(root: str, path: str, exclude_dir: Optional[str]) -> Iterator[str]:
    """Files under ``path`` (relative to ``root``) in grep -r's sense:
    the path itself if it is a file, else every file below it that is
    not reached through a symbolic link."""
    start = os.path.join(root, path)
    if os.path.isfile(start):
        yield path
        return
    for directory, subdirs, names in os.walk(start):
        subdirs[:] = sorted(
            name for name in subdirs
            if name != exclude_dir
            and not os.path.islink(os.path.join(directory, name))
        )
        for name in sorted(names):
            full = os.path.join(directory, name)
            if not os.path.islink(full):
                yield os.path.relpath(full, root).replace(os.sep, "/")


def _lines(root: str, relative: str) -> List[str]:
    """The lines of a text file; none for a binary one."""
    with open(os.path.join(root, relative), "rb") as handle:
        data = handle.read()
    if b"\0" in data:
        return []
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return []


def violations(check: Check, root: str = REPO) -> List[str]:
    """``check``'s matches under ``root``, as ``path:line:text``."""
    pattern = re.compile(check.pattern)
    ignore = re.compile(check.ignore) if check.ignore else None
    found = []
    for path in check.paths:
        for relative in _files(root, path, check.exclude_dir):
            for number, line in enumerate(_lines(root, relative), 1):
                if not pattern.search(line):
                    continue
                hit = f"{relative}:{number}:{line}"
                if ignore is None or not ignore.search(hit):
                    found.append(hit)
    return found


def main(argv: List[str]) -> int:
    root = os.path.abspath(argv[0]) if argv else REPO
    failed = False
    for check in CHECKS:
        found = violations(check, root)
        if found:
            failed = True
            print(f"{check.guard}: {check.message}")
            for hit in found:
                print(f"  {hit}")
    if not failed:
        print(f"{len(CHECKS)} invariant checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
