"""EXPLAIN: structured plan introspection plus text rendering.

The supported surface is the typed :class:`PlanNode` tree returned by
``Session.explain(sql)`` (and the ``Connection`` / ``RemoteSession``
duck-typed equivalents) and by ``EXPLAIN (FORMAT JSON) <query>``.  Each
node carries the operator kind, a one-line description, the planner's
estimated rows/cost (when ANALYZE statistics exist), actual rows/time
when the plan was executed (EXPLAIN ANALYZE), and the alternatives the
cost-based planner *rejected* with their estimated costs — so EXPLAIN
can show why a plan won.

Text EXPLAIN remains, as a formatter over the tree::

    Sort (1 key)
      Project
        Filter (sales > 100)
          SeqScan on emps

``EXPLAIN ANALYZE <query>`` executes the query with an instrumented plan
(:func:`repro.engine.executor.instrument_plan`) and each line carries
actual row counts and cumulative time::

    Project (4 columns) (actual rows=3 time=0.041 ms)
      SeqScan on emps (actual rows=10 time=0.012 ms)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.executor import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    SingleRow,
    Sort,
    UnionOp,
    operator_children,
)
from repro.engine.virtual import VirtualScan

__all__ = [
    "PlanAlternative",
    "PlanNode",
    "build_plan_tree",
    "format_plan_tree",
    "describe_operator",
]


@dataclass
class PlanAlternative:
    """A plan choice the planner considered and rejected, with its cost."""

    description: str
    estimated_cost: Optional[float] = None
    estimated_rows: Optional[float] = None
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "description": self.description,
            "estimated_cost": self.estimated_cost,
            "estimated_rows": self.estimated_rows,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanAlternative":
        return cls(
            description=data.get("description", ""),
            estimated_cost=data.get("estimated_cost"),
            estimated_rows=data.get("estimated_rows"),
            reason=data.get("reason", ""),
        )


@dataclass
class PlanNode:
    """One node of a compiled plan, as surfaced to API consumers.

    The tree is plain data — it serialises over the wire (dicts,
    lists, scalars) via :meth:`to_dict` / :meth:`from_dict`, which is
    exactly what ``EXPLAIN (FORMAT JSON)`` emits.
    """

    kind: str
    description: str
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None
    actual_rows: Optional[int] = None
    actual_ms: Optional[float] = None
    rejected: List[PlanAlternative] = field(default_factory=list)
    children: List["PlanNode"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "description": self.description,
        }
        if self.estimated_rows is not None:
            data["estimated_rows"] = self.estimated_rows
        if self.estimated_cost is not None:
            data["estimated_cost"] = self.estimated_cost
        if self.actual_rows is not None:
            data["actual_rows"] = self.actual_rows
        if self.actual_ms is not None:
            data["actual_ms"] = self.actual_ms
        if self.rejected:
            data["rejected"] = [alt.to_dict() for alt in self.rejected]
        data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanNode":
        return cls(
            kind=data.get("kind", "?"),
            description=data.get("description", ""),
            estimated_rows=data.get("estimated_rows"),
            estimated_cost=data.get("estimated_cost"),
            actual_rows=data.get("actual_rows"),
            actual_ms=data.get("actual_ms"),
            rejected=[
                PlanAlternative.from_dict(alt)
                for alt in data.get("rejected", ())
            ],
            children=[
                cls.from_dict(child)
                for child in data.get("children", ())
            ],
        )

    # -- traversal helpers (handy in tests and tooling) ----------------
    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> Optional["PlanNode"]:
        for node in self.walk():
            if node.kind == kind:
                return node
        return None


def describe_operator(operator: Operator) -> str:
    """One-line description of a single operator."""
    if isinstance(operator, VirtualScan):
        return f"VirtualScan on {operator.table.name}"
    if isinstance(operator, SeqScan):
        return f"SeqScan on {operator.table.name}"
    if isinstance(operator, IndexScan):
        line = (
            f"IndexScan using {operator.index.name} "
            f"on {operator.table.name}"
        )
        if operator.description:
            line = f"{line} ({operator.description})"
        return line
    if isinstance(operator, SingleRow):
        return "Result (no table)"
    if isinstance(operator, Filter):
        if operator.description:
            return f"Filter ({operator.description})"
        return "Filter"
    if isinstance(operator, Project):
        return f"Project ({len(operator.items)} columns)"
    if isinstance(operator, NestedLoopJoin):
        return f"NestedLoopJoin ({operator.kind})"
    if isinstance(operator, IndexNestedLoopJoin):
        line = f"IndexNestedLoopJoin ({operator.kind})"
        if operator.description:
            line = f"{line} ({operator.description})"
        return line
    if isinstance(operator, HashJoin):
        kind = operator.kind
        if getattr(operator, "build", "right") == "left":
            kind = f"{kind}, build=left"
        line = f"HashJoin ({kind})"
        if operator.description:
            line = f"{line} ({operator.description})"
        return line
    if isinstance(operator, Sort):
        keys = len(operator.keys)
        return f"Sort ({keys} key{'s' if keys != 1 else ''})"
    if isinstance(operator, Limit):
        return "Limit"
    if isinstance(operator, Distinct):
        return "Distinct"
    if isinstance(operator, GroupAggregate):
        return (
            f"GroupAggregate ({len(operator.keys)} group keys, "
            f"{len(operator.aggregates)} aggregates)"
        )
    if isinstance(operator, UnionOp):
        label = operator.op.capitalize()
        return f"{label} ALL" if operator.all_rows else label
    return type(operator).__name__


def _coerce_alternative(alternative: Any) -> PlanAlternative:
    if isinstance(alternative, PlanAlternative):
        return alternative
    if isinstance(alternative, dict):
        return PlanAlternative.from_dict(alternative)
    return PlanAlternative(description=str(alternative))


def build_plan_tree(
    operator: Operator,
    instrumentation: Any = None,
) -> PlanNode:
    """Materialise the typed :class:`PlanNode` tree for an operator tree.

    Planner cost annotations (``estimated_rows`` / ``estimated_cost`` /
    ``rejected`` attributes the cost-based planner leaves on operators)
    are lifted onto the nodes; when ``instrumentation`` (a
    :class:`~repro.engine.executor.PlanInstrumentation`) is given,
    actual row counts and times from an executed plan ride along too.
    """
    node = PlanNode(
        kind=type(operator).__name__,
        description=describe_operator(operator),
        estimated_rows=getattr(operator, "estimated_rows", None),
        estimated_cost=getattr(operator, "estimated_cost", None),
        rejected=[
            _coerce_alternative(alt)
            for alt in getattr(operator, "rejected", ()) or ()
        ],
    )
    if instrumentation is not None:
        stats = instrumentation.stats_for(operator)
        if stats is not None:
            node.actual_rows = stats.rows_out
            node.actual_ms = stats.seconds * 1000.0
    node.children = [
        build_plan_tree(child, instrumentation)
        for child in operator_children(operator)
    ]
    return node


def format_plan_tree(node: PlanNode, indent: int = 0) -> List[str]:
    """Render a :class:`PlanNode` tree as indented lines, root first.

    This is the text EXPLAIN output; estimates appear only when the
    planner had statistics, actuals only for EXPLAIN ANALYZE, so plans
    over un-ANALYZEd tables render exactly as they always have.
    """
    line = "  " * indent + node.description
    if node.estimated_cost is not None:
        rows = node.estimated_rows
        rows_text = f" rows={rows:.0f}" if rows is not None else ""
        line = f"{line} (cost={node.estimated_cost:.1f}{rows_text})"
    if node.actual_rows is not None:
        time_ms = node.actual_ms if node.actual_ms is not None else 0.0
        line = (
            f"{line} (actual rows={node.actual_rows} "
            f"time={time_ms:.3f} ms)"
        )
    lines = [line]
    for alternative in node.rejected:
        alt_line = "  " * (indent + 1) + f"Rejected: {alternative.description}"
        if alternative.estimated_cost is not None:
            alt_line = f"{alt_line} (cost={alternative.estimated_cost:.1f})"
        if alternative.reason:
            alt_line = f"{alt_line} [{alternative.reason}]"
        lines.append(alt_line)
    for child in node.children:
        lines.extend(format_plan_tree(child, indent + 1))
    return lines
