"""Cost-based planner benchmark: join order on an adversarial query.

A star schema (two dimension tables plus a fact table) is queried with
the join written in the worst possible FROM order::

    SELECT ... FROM dim1, dim2, fact
    WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id
      AND fact.id < <selective bound>

Without statistics the planner folds strictly in FROM order, so its
first step is ``dim1 x dim2`` — a cross product of |dim1| * |dim2|
pairs that no join predicate constrains — before the fact table joins both
dimensions away.  The cost-based planner (after ``ANALYZE``) starts
from a dimension, hash-joins the fact table next, and never crosses;
it also picks the smaller input as each hash join's build side.

Two arms run the identical query stream over identical data:

* **rule_based** — before ``ANALYZE``: no statistics, so the planner
  keeps FROM order;
* **cost_based** — after ``ANALYZE`` (which invalidates the cached
  plan), on the same database.

``speedup`` is rule-based wall time over cost-based wall time.  The
run also asserts the introspection contract: ``EXPLAIN (FORMAT JSON)``
on the cost-based arm must report the rejected FROM-order plan with a
higher estimated cost than the chosen plan — the planner has to *show*
why it won, not just win.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py [--facts N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro import Database  # noqa: E402

QUERY = (
    "select dim1.name, dim2.name, fact.qty from dim1, dim2, fact "
    "where fact.d1 = dim1.id and fact.d2 = dim2.id and fact.id < {bound}"
)


def _load(session, dims: int, facts: int) -> None:
    session.execute("create table dim1 (id int, name varchar(16))")
    session.execute("create table dim2 (id int, name varchar(16))")
    session.execute(
        "create table fact (id int, d1 int, d2 int, qty int)"
    )
    session.execute_batch(
        "insert into dim1 values (?, ?)",
        [(i, "a%d" % i) for i in range(dims)],
    )
    session.execute_batch(
        "insert into dim2 values (?, ?)",
        [(i, "b%d" % i) for i in range(dims)],
    )
    session.execute_batch(
        "insert into fact values (?, ?, ?, ?)",
        [(i, i % dims, (i * 7) % dims, i % 100) for i in range(facts)],
    )


def _run(session, sql: str, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        rows = session.execute(sql).rows
        assert rows, "benchmark query returned no rows"
    return time.perf_counter() - start


def _assert_rejected_plan_shown(session, sql: str) -> Dict[str, Any]:
    """The JSON EXPLAIN must carry the rejected FROM-order plan, at a
    higher estimated cost than the plan that ran."""
    result = session.execute(f"explain (format json) {sql}")
    document = json.loads(result.rows[0][0])

    def nodes(node):
        yield node
        for child in node.get("children", ()):
            yield from nodes(child)

    plan = document["plan"]
    rejected = [
        alt
        for node in nodes(plan)
        for alt in node.get("rejected", ())
        if "FROM order" in alt["description"]
    ]
    assert rejected, "cost-based plan does not show the rejected " \
        "rule-based join order"
    chosen_cost = next(
        node["estimated_cost"]
        for node in nodes(plan)
        if node.get("estimated_cost") is not None
    )
    assert rejected[0]["estimated_cost"] > chosen_cost, (
        "rejected rule-based plan should cost more than the chosen one"
    )
    return {
        "chosen_cost": chosen_cost,
        "rejected_cost": rejected[0]["estimated_cost"],
    }


def bench_planner(
    facts: int, dims: int = 400, repeats: int = 3
) -> Dict[str, Any]:
    sql = QUERY.format(bound=max(facts // 20, 1))

    session = Database(name="bench_planner").create_session(
        autocommit=True
    )
    _load(session, dims, facts)

    # Arm 1: no statistics yet (FROM-order fold, cross product first).
    rule_seconds = _run(session, sql, repeats)
    rule_rows = sorted(
        tuple(r) for r in session.execute(sql).rows
    )

    # Arm 2: cost-based, with fresh statistics.
    session.execute("analyze")
    cost_seconds = _run(session, sql, repeats)
    cost_rows = sorted(
        tuple(r) for r in session.execute(sql).rows
    )
    assert cost_rows == rule_rows, (
        "cost-based and rule-based plans returned different rows"
    )

    costs = _assert_rejected_plan_shown(session, sql)

    return {
        "experiment": "planner",
        "dims": dims,
        "facts": facts,
        "repeats": repeats,
        "rule_based_seconds": rule_seconds,
        "cost_based_seconds": cost_seconds,
        "result_rows": len(cost_rows),
        "chosen_cost": costs["chosen_cost"],
        "rejected_cost": costs["rejected_cost"],
        "speedup": rule_seconds / cost_seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--facts", type=int, default=20_000)
    parser.add_argument("--dims", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    outcome = bench_planner(args.facts, args.dims, args.repeats)
    print(json.dumps(outcome, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
