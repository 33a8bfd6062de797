"""Tests for the dialect-aware SQL renderer (used by customizers)."""

import pytest

from repro import errors
from repro.engine.dialects import ACME, STANDARD, ZENITH
from repro.engine.parser import parse_statement
from repro.engine.render import render_statement


def roundtrip(sql, dialect=STANDARD):
    """parse -> render -> parse; returns the two ASTs for comparison."""
    first = parse_statement(sql)
    rendered = render_statement(first, dialect)
    second = parse_statement(rendered, dialect)
    return first, second, rendered


CORPUS = [
    "SELECT name, year FROM people",
    "SELECT DISTINCT a, b FROM t WHERE a > 1 ORDER BY b DESC",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3)",
    "SELECT a FROM t WHERE name LIKE 'A%' ESCAPE '!'",
    "SELECT a FROM t WHERE a IS NOT NULL",
    "SELECT state, COUNT(*) FROM emps GROUP BY state HAVING COUNT(*) > 1",
    "SELECT a FROM t JOIN u ON t.x = u.x LEFT OUTER JOIN v ON u.y = v.y",
    "SELECT a FROM (SELECT a FROM t) AS sub",
    "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
    "SELECT CAST(a AS DECIMAL(6,2)) FROM t",
    "SELECT upper(name), sales * 2 FROM emps WHERE sales >= ?",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.x)",
    "SELECT a FROM t WHERE a = (SELECT MAX(b) FROM u)",
    "SELECT name, home_addr>>zip FROM emps WHERE home_addr>>zip <> '9'",
    "SELECT addr>>contiguous(a, b) FROM t",
    "INSERT INTO emps VALUES ('A', 'E1', 'CA', 1.5)",
    "INSERT INTO emps (name, id) VALUES (?, ?)",
    "INSERT INTO t SELECT a FROM u",
    "UPDATE emps SET sales = sales * 2 WHERE state = 'CA'",
    "UPDATE emps SET home_addr>>zip = '99123' WHERE name = 'Bob'",
    "DELETE FROM emps WHERE sales IS NULL",
    "CALL correct_states('CAL', 'CA')",
    "CALL best2(?, ?, ?)",
    "COMMIT",
    "ROLLBACK",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT a FROM t INTERSECT SELECT b FROM u",
    "SELECT a FROM t EXCEPT ALL SELECT b FROM u",
    "SELECT 'it''s' FROM t",
    "SELECT -a, NOT (b = 1) FROM t",
    "SELECT NEW addr('s', 'z') FROM t",
    "SELECT COUNT(DISTINCT state) FROM emps",
    "EXPLAIN SELECT a FROM t WHERE a = ?",
    "EXPLAIN ANALYZE SELECT a FROM t",
    "EXPLAIN (ANALYZE, FORMAT JSON) SELECT a FROM t",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_standard_roundtrip_is_stable(self, sql):
        first, second, _rendered = roundtrip(sql)
        assert first == second

    @pytest.mark.parametrize("sql", CORPUS)
    def test_rendered_text_reparses_in_acme(self, sql):
        first = parse_statement(sql)
        rendered = render_statement(first, ACME)
        parse_statement(rendered, ACME)  # must not raise

    @pytest.mark.parametrize("sql", CORPUS)
    def test_rendered_text_reparses_in_zenith(self, sql):
        first = parse_statement(sql)
        rendered = render_statement(first, ZENITH)
        parse_statement(rendered, ZENITH)


class TestDialectSpellings:
    def test_limit_becomes_top_for_acme(self):
        stmt = parse_statement("select a from t limit 5")
        assert "TOP 5" in render_statement(stmt, ACME)
        assert "LIMIT" not in render_statement(stmt, ACME)

    def test_limit_becomes_fetch_first_for_zenith(self):
        stmt = parse_statement("select a from t limit 5")
        rendered = render_statement(stmt, ZENITH)
        assert "FETCH FIRST 5 ROWS ONLY" in rendered

    def test_concat_becomes_plus_for_acme(self):
        stmt = parse_statement("select a || b from t")
        rendered = render_statement(stmt, ACME)
        assert "||" not in rendered
        assert "+" in rendered

    def test_concat_stays_for_zenith(self):
        stmt = parse_statement("select a || b from t")
        assert "||" in render_statement(stmt, ZENITH)

    def test_standard_keeps_limit(self):
        stmt = parse_statement("select a from t limit 5 offset 2")
        rendered = render_statement(stmt, STANDARD)
        assert "LIMIT 5" in rendered
        assert "OFFSET 2" in rendered

    def test_parameters_preserved(self):
        stmt = parse_statement("select a from t where a = ? and b = ?")
        assert render_statement(stmt, ACME).count("?") == 2

    def test_string_literal_escaping(self):
        stmt = parse_statement("select 'it''s' from t")
        assert "'it''s'" in render_statement(stmt, STANDARD)
