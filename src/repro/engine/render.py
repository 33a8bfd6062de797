"""Rendering AST back to SQL text, dialect-aware.

Used by profile customizers to show (and test) the vendor-specific SQL a
customization produces — e.g. the standard dialect's ``LIMIT n`` becomes
``SELECT TOP n`` for the acme dialect and ``FETCH FIRST n ROWS ONLY`` for
zenith, and ``||`` concatenation becomes ``+`` where required.  Every
statement a profile entry may hold renders, DDL and savepoints included,
and the planner renders expressions for its plan text.
"""

from __future__ import annotations

from decimal import Decimal
from typing import List

from repro import errors
from repro.engine import ast
from repro.engine.dialects import STANDARD, Dialect

__all__ = ["render_statement", "render_expression"]


class _Renderer:
    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def statement(self, node: ast.Statement) -> str:
        if isinstance(node, ast.Select):
            return self.select(node)
        if isinstance(node, ast.SetOperation):
            return self.set_operation(node)
        if isinstance(node, ast.Insert):
            return self.insert(node)
        if isinstance(node, ast.Update):
            return self.update(node)
        if isinstance(node, ast.Delete):
            return self.delete(node)
        if isinstance(node, ast.Call):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"CALL {node.procedure}({args})"
        if isinstance(node, ast.Explain):
            options = ["ANALYZE"] * node.analyze + [f"FORMAT {node.format}"]
            query = self.query(node.query)
            return f"EXPLAIN ({', '.join(options)}) {query}"
        if isinstance(node, ast.Analyze):
            if node.table:
                return f"ANALYZE {node.table}"
            return "ANALYZE"
        if isinstance(node, ast.Commit):
            return "COMMIT"
        if isinstance(node, ast.Rollback):
            return "ROLLBACK"
        if isinstance(node, ast.CreateTable):
            columns = ", ".join(
                self.column_def(c) for c in node.columns
            )
            return f"CREATE TABLE {node.name} ({columns})"
        if isinstance(node, ast.CreateView):
            text = f"CREATE VIEW {node.name}"
            if node.column_names:
                text += f" ({', '.join(node.column_names)})"
            return f"{text} AS {self.query(node.query)}"
        if isinstance(node, ast.AlterTable):
            if node.action == "ADD":
                return (
                    f"ALTER TABLE {node.table} ADD COLUMN "
                    f"{self.column_def(node.column_def)}"
                )
            return (
                f"ALTER TABLE {node.table} DROP COLUMN "
                f"{node.column_name}"
            )
        if isinstance(node, ast.CreateIndex):
            columns = ", ".join(node.columns)
            return (
                f"CREATE INDEX {node.name} ON {node.table} ({columns})"
            )
        if isinstance(node, ast.Drop):
            exists = "IF EXISTS " if node.if_exists else ""
            return f"DROP {node.kind} {exists}{node.name}"
        if isinstance(node, ast.Grant):
            grantees = ", ".join(node.grantees)
            return (
                f"GRANT {node.privilege} ON {node.object_name} "
                f"TO {grantees}"
            )
        if isinstance(node, ast.Revoke):
            grantees = ", ".join(node.grantees)
            return (
                f"REVOKE {node.privilege} ON {node.object_name} "
                f"FROM {grantees}"
            )
        if isinstance(node, ast.Savepoint):
            return f"SAVEPOINT {node.name}"
        if isinstance(node, ast.RollbackTo):
            return f"ROLLBACK TO SAVEPOINT {node.name}"
        if isinstance(node, ast.ReleaseSavepoint):
            return f"RELEASE SAVEPOINT {node.name}"
        raise errors.FeatureNotSupportedError(
            f"cannot render {type(node).__name__}"
        )

    def column_def(self, definition: ast.ColumnDef) -> str:
        parts = [definition.name, definition.type_spelling]
        if definition.default is not None:
            parts.append(f"DEFAULT {self.expr(definition.default)}")
        if definition.not_null:
            parts.append("NOT NULL")
        if definition.primary_key:
            parts.append("PRIMARY KEY")
        elif definition.unique:
            parts.append("UNIQUE")
        return " ".join(parts)

    def select(self, node: ast.Select) -> str:
        parts: List[str] = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        if node.limit is not None and self.dialect.limit_style == "top":
            parts.append(f"TOP {self.expr(node.limit)}")
        parts.append(", ".join(self.select_item(i) for i in node.items))
        if node.from_clause:
            parts.append("FROM")
            parts.append(
                ", ".join(self.table_ref(t) for t in node.from_clause)
            )
        if node.where is not None:
            parts.append(f"WHERE {self.expr(node.where)}")
        if node.group_by:
            parts.append(
                "GROUP BY " + ", ".join(self.expr(g) for g in node.group_by)
            )
        if node.having is not None:
            parts.append(f"HAVING {self.expr(node.having)}")
        if node.order_by:
            parts.append(
                "ORDER BY " + ", ".join(
                    self.order_item(o) for o in node.order_by
                )
            )
        if node.limit is not None:
            style = self.dialect.limit_style
            if style == "limit":
                parts.append(f"LIMIT {self.expr(node.limit)}")
                if node.offset is not None:
                    parts.append(f"OFFSET {self.expr(node.offset)}")
            elif style == "fetch_first":
                parts.append(
                    f"FETCH FIRST {self.expr(node.limit)} ROWS ONLY"
                )
            # "top" already emitted
        elif node.offset is not None:
            raise errors.FeatureNotSupportedError(
                "OFFSET without LIMIT cannot be rendered"
            )
        return " ".join(parts)

    def set_operation(self, node: ast.SetOperation) -> str:
        keyword = node.op + (" ALL" if node.all else "")
        text = (
            f"{self.query(node.left)} {keyword} {self.query(node.right)}"
        )
        if node.order_by:
            text += " ORDER BY " + ", ".join(
                self.order_item(o) for o in node.order_by
            )
        return text

    def query(self, node: ast.QueryExpr) -> str:
        if isinstance(node, ast.SetOperation):
            return f"({self.set_operation(node)})"
        return self.select(node)

    def select_item(self, item: ast.Node) -> str:
        if isinstance(item, ast.StarItem):
            return f"{item.table}.*" if item.table else "*"
        assert isinstance(item, ast.SelectItem)
        text = self.expr(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        return text

    def order_item(self, item: ast.OrderItem) -> str:
        return self.expr(item.expression) + (
            "" if item.ascending else " DESC"
        )

    def table_ref(self, ref: ast.TableRef) -> str:
        if isinstance(ref, ast.TableName):
            return ref.name + (f" {ref.alias}" if ref.alias else "")
        if isinstance(ref, ast.SubqueryRef):
            return f"({self.query(ref.query)}) AS {ref.alias}"
        if isinstance(ref, ast.Join):
            left = self.table_ref(ref.left)
            right = self.table_ref(ref.right)
            if ref.kind == "CROSS":
                return f"{left} CROSS JOIN {right}"
            keyword = {
                "INNER": "JOIN",
                "LEFT": "LEFT OUTER JOIN",
                "RIGHT": "RIGHT OUTER JOIN",
                "FULL": "FULL OUTER JOIN",
            }[ref.kind]
            condition = (
                f" ON {self.expr(ref.condition)}" if ref.condition else ""
            )
            return f"{left} {keyword} {right}{condition}"
        raise errors.FeatureNotSupportedError(
            f"cannot render table ref {type(ref).__name__}"
        )

    def insert(self, node: ast.Insert) -> str:
        text = f"INSERT INTO {node.table}"
        if node.columns:
            text += f" ({', '.join(node.columns)})"
        if isinstance(node.source, ast.ValuesSource):
            rows = ", ".join(
                "(" + ", ".join(self.expr(v) for v in row) + ")"
                for row in node.source.rows
            )
            return f"{text} VALUES {rows}"
        return f"{text} {self.query(node.source)}"

    def update(self, node: ast.Update) -> str:
        assignments = []
        for assignment in node.assignments:
            if isinstance(assignment.target, str):
                target = assignment.target
            else:
                target = assignment.target.column + "".join(
                    f">>{a}" for a in assignment.target.attributes
                )
            assignments.append(f"{target} = {self.expr(assignment.value)}")
        text = f"UPDATE {node.table} SET {', '.join(assignments)}"
        if node.where is not None:
            text += f" WHERE {self.expr(node.where)}"
        return text

    def delete(self, node: ast.Delete) -> str:
        text = f"DELETE FROM {node.table}"
        if node.where is not None:
            text += f" WHERE {self.expr(node.where)}"
        return text

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, node: ast.Expression) -> str:
        if isinstance(node, ast.Literal):
            return self.literal(node.value)
        if isinstance(node, ast.ColumnRef):
            return node.display()
        if isinstance(node, ast.Parameter):
            return "?"
        if isinstance(node, ast.Unary):
            if node.op == "NOT":
                return f"NOT ({self.expr(node.operand)})"
            return f"{node.op}({self.expr(node.operand)})"
        if isinstance(node, ast.Binary):
            return self.binary(node)
        if isinstance(node, ast.IsNull):
            keyword = "IS NOT NULL" if node.negated else "IS NULL"
            return f"{self.expr(node.operand)} {keyword}"
        if isinstance(node, ast.Between):
            keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (
                f"{self.expr(node.operand)} {keyword} "
                f"{self.expr(node.low)} AND {self.expr(node.high)}"
            )
        if isinstance(node, ast.InList):
            keyword = "NOT IN" if node.negated else "IN"
            items = ", ".join(self.expr(i) for i in node.items)
            return f"{self.expr(node.operand)} {keyword} ({items})"
        if isinstance(node, ast.InSubquery):
            keyword = "NOT IN" if node.negated else "IN"
            return (
                f"{self.expr(node.operand)} {keyword} "
                f"({self.query(node.subquery)})"
            )
        if isinstance(node, ast.Like):
            keyword = "NOT LIKE" if node.negated else "LIKE"
            text = f"{self.expr(node.operand)} {keyword} " \
                   f"{self.expr(node.pattern)}"
            if node.escape is not None:
                text += f" ESCAPE {self.expr(node.escape)}"
            return text
        if isinstance(node, ast.CaseExpr):
            return self.case(node)
        if isinstance(node, ast.Cast):
            return f"CAST({self.expr(node.operand)} AS {node.target_type})"
        if isinstance(node, ast.FunctionCall):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"{node.name}({args})"
        if isinstance(node, ast.AggregateCall):
            if node.argument is None:
                return "COUNT(*)"
            prefix = "DISTINCT " if node.distinct else ""
            return f"{node.name}({prefix}{self.expr(node.argument)})"
        if isinstance(node, ast.ScalarSubquery):
            return f"({self.query(node.query)})"
        if isinstance(node, ast.Exists):
            keyword = "NOT EXISTS" if node.negated else "EXISTS"
            return f"{keyword} ({self.query(node.query)})"
        if isinstance(node, ast.NewObject):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"NEW {node.type_name}({args})"
        if isinstance(node, ast.AttributeRef):
            return f"{self.expr(node.target)}>>{node.attribute}"
        if isinstance(node, ast.MethodCall):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"{self.expr(node.target)}>>{node.method}({args})"
        raise errors.FeatureNotSupportedError(
            f"cannot render expression {type(node).__name__}"
        )

    def binary(self, node: ast.Binary) -> str:
        op = node.op
        if op == "||" and not self.dialect.allows_double_pipe_concat:
            if not self.dialect.plus_concatenates_strings:
                raise errors.CustomizationError(
                    f"dialect {self.dialect.name!r} has no string "
                    "concatenation operator"
                )
            op = "+"
        left = self._operand(node.left)
        right = self._operand(node.right)
        if op in ("AND", "OR"):
            return f"({left}) {op} ({right})"
        return f"{left} {op} {right}"

    def _operand(self, node: ast.Expression) -> str:
        """Render a binary operand, parenthesising compound expressions
        so operator precedence survives the round trip."""
        text = self.expr(node)
        if isinstance(node, (ast.Binary, ast.Unary, ast.CaseExpr)):
            return f"({text})"
        return text

    def case(self, node: ast.CaseExpr) -> str:
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(self.expr(node.operand))
        for when in node.whens:
            parts.append(
                f"WHEN {self.expr(when.condition)} "
                f"THEN {self.expr(when.result)}"
            )
        if node.else_result is not None:
            parts.append(f"ELSE {self.expr(node.else_result)}")
        parts.append("END")
        return " ".join(parts)

    def literal(self, value) -> str:
        if value is None:
            return "NULL"
        if value is True:
            return "TRUE"
        if value is False:
            return "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(value, (int, float, Decimal)):
            return str(value)
        raise errors.FeatureNotSupportedError(
            f"cannot render literal of type {type(value).__name__}"
        )


def render_statement(
    node: ast.Statement, dialect: Dialect = STANDARD
) -> str:
    """Render a statement AST as SQL text in the given dialect."""
    return _Renderer(dialect).statement(node)


def render_expression(
    node: ast.Expression, dialect: Dialect = STANDARD
) -> str:
    """Render an expression AST as SQL text in the given dialect."""
    return _Renderer(dialect).expr(node)
