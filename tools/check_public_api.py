#!/usr/bin/env python
"""Public-API snapshot check.

Renders the supported surface — ``repro.__all__``, the signatures of the
façade entry points, the server's constructor and CLI flags, and the
error hierarchy with its SQLSTATEs — to a
stable text form and diffs it against the committed snapshot
(``tools/public_api.snapshot``).  CI fails on any drift, so changing the
public API requires deliberately regenerating the snapshot:

    python tools/check_public_api.py --update

Run with no arguments to check (exit 1 and a unified diff on mismatch).
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import os
import sys

SNAPSHOT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "public_api.snapshot"
)

# Entry points whose exact signatures are part of the contract.
SIGNATURES = [
    ("repro.connect", lambda repro: repro.connect),
    ("repro.open_database", lambda repro: repro.open_database),
    ("repro.Database.__init__", lambda repro: repro.Database.__init__),
    (
        "repro.ConnectionPool.__init__",
        lambda repro: repro.ConnectionPool.__init__,
    ),
    (
        "repro.ConnectionPool.checkout",
        lambda repro: repro.ConnectionPool.checkout,
    ),
    (
        "repro.ConnectionContext.__init__",
        lambda repro: repro.ConnectionContext.__init__,
    ),
    (
        "repro.ExecutionContext.__init__",
        lambda repro: repro.ExecutionContext.__init__,
    ),
    (
        "repro.DriverManager.get_connection",
        lambda repro: repro.DriverManager.get_connection,
    ),
    (
        "repro.DriverManager.get_pool",
        lambda repro: repro.DriverManager.get_pool,
    ),
    # batch / bulk-load fast path
    (
        "repro.Connection.cursor",
        lambda repro: repro.Connection.cursor,
    ),
    (
        "repro.dbapi.Cursor.executemany",
        lambda repro: __import__(
            "repro.dbapi", fromlist=["Cursor"]
        ).Cursor.executemany,
    ),
    (
        "repro.dbapi.PreparedStatement.execute_batch",
        lambda repro: __import__(
            "repro.dbapi", fromlist=["PreparedStatement"]
        ).PreparedStatement.execute_batch,
    ),
    (
        "repro.engine.database.Session.execute_batch",
        lambda repro: __import__(
            "repro.engine.database", fromlist=["Session"]
        ).Session.execute_batch,
    ),
    # plan introspection
    (
        "repro.Connection.explain",
        lambda repro: repro.Connection.explain,
    ),
    (
        "repro.engine.database.Session.explain",
        lambda repro: __import__(
            "repro.engine.database", fromlist=["Session"]
        ).Session.explain,
    ),
    (
        "repro.engine.explain.PlanNode.to_dict",
        lambda repro: __import__(
            "repro.engine.explain", fromlist=["PlanNode"]
        ).PlanNode.to_dict,
    ),
    # network server knobs
    (
        "repro.server.ReproServer.__init__",
        lambda repro: __import__(
            "repro.server", fromlist=["ReproServer"]
        ).ReproServer.__init__,
    ),
]


def render_surface() -> str:
    import repro
    from repro import errors

    lines = ["# repro public API snapshot (tools/check_public_api.py)"]
    lines.append("")
    lines.append("[repro.__all__]")
    for name in repro.__all__:
        lines.append(name)
    lines.append("")
    lines.append("[signatures]")
    for label, getter in SIGNATURES:
        lines.append(f"{label}{inspect.signature(getter(repro))}")
    lines.append("")
    lines.append("[python -m repro.server]")
    from repro.server.__main__ import build_parser

    for action in build_parser()._actions:
        if action.option_strings != ["-h", "--help"]:
            lines.append(
                f"{' '.join(action.option_strings)} default={action.default!r}"
            )
    lines.append("")
    lines.append("[errors]")
    for name in errors.__all__:
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, errors.ReproError):
            lines.append(f"{name} sqlstate={obj('x').sqlstate}")
        else:
            lines.append(name)
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed snapshot from the live surface",
    )
    args = parser.parse_args(argv)

    current = render_surface()
    if args.update:
        with open(SNAPSHOT_PATH, "w") as fh:
            fh.write(current)
        print(f"snapshot updated: {SNAPSHOT_PATH}")
        return 0

    if not os.path.exists(SNAPSHOT_PATH):
        print(
            f"missing snapshot {SNAPSHOT_PATH}; run with --update",
            file=sys.stderr,
        )
        return 1
    with open(SNAPSHOT_PATH) as fh:
        committed = fh.read()
    if committed == current:
        print("public API surface matches the committed snapshot")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True),
        current.splitlines(keepends=True),
        fromfile="tools/public_api.snapshot (committed)",
        tofile="live surface",
    )
    sys.stderr.writelines(diff)
    print(
        "\npublic API drift detected; if intentional, regenerate with "
        "`python tools/check_public_api.py --update`",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
