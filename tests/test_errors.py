"""Tests for the exception taxonomy: every engine failure is a ReproError."""

import pytest

from repro import errors
from repro.api import Database
from repro.storage import DataType


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SchemaError,
            errors.AmbiguousColumnError,
            errors.UnknownColumnError,
            errors.TypeCheckError,
            errors.CatalogError,
            errors.ConstraintError,
            errors.SqlSyntaxError,
            errors.BindError,
            errors.PlanError,
            errors.OptimizerError,
            errors.ExecutionError,
            errors.XmlPublishError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_ambiguous_error_carries_candidates(self):
        error = errors.AmbiguousColumnError("x", ["a.x", "b.x"])
        assert error.candidates == ["a.x", "b.x"]
        assert "a.x" in str(error)

    def test_unknown_column_lists_available(self):
        error = errors.UnknownColumnError("q", ["a", "b"])
        assert "a, b" in str(error)

    def test_sql_syntax_error_location(self):
        error = errors.SqlSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7


class TestFailuresSurfaceAsReproErrors:
    """User-facing failure paths never leak bare Python exceptions."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)], [(1,)])
        return db

    def test_lexer_failure(self, db):
        with pytest.raises(errors.ReproError):
            db.sql("select @ from t")

    def test_parser_failure(self, db):
        with pytest.raises(errors.ReproError):
            db.sql("select from where")

    def test_binder_failure(self, db):
        with pytest.raises(errors.ReproError):
            db.sql("select ghost from t")

    def test_catalog_failure(self, db):
        with pytest.raises(errors.ReproError):
            db.sql("select a from phantom")

    def test_division_by_zero(self, db):
        with pytest.raises(errors.ExecutionError):
            db.sql("select a / 0 from t")

    def test_cross_type_comparison(self, db):
        with pytest.raises(errors.ReproError):
            db.sql("select a from t where a > 'text'")


class TestGovernanceErrors:
    """The robustness additions: budget/cancel/spill error types."""

    @pytest.mark.parametrize(
        "exc",
        [
            errors.QueryCancelled,
            errors.BudgetExceeded,
            errors.TimeoutExceeded,
            errors.MemoryBudgetExceeded,
            errors.RowBudgetExceeded,
            errors.SpillError,
        ],
    )
    def test_derive_from_execution_error(self, exc):
        assert issubclass(exc, errors.ExecutionError)
        assert issubclass(exc, errors.ReproError)

    @pytest.mark.parametrize(
        "exc",
        [
            errors.TimeoutExceeded,
            errors.MemoryBudgetExceeded,
            errors.RowBudgetExceeded,
        ],
    )
    def test_budget_violations_share_a_catchall(self, exc):
        assert issubclass(exc, errors.BudgetExceeded)


class TestErrorContext:
    def test_first_writer_wins(self):
        error = errors.ExecutionError("boom")
        error.add_context(sql="inner", plan_path="0.1")
        error.add_context(sql="outer", plan_path="")
        assert error.sql == "inner"
        assert error.plan_path == "0.1"

    def test_add_context_returns_self_for_raise_chaining(self):
        error = errors.ExecutionError("boom")
        assert error.add_context(sql="q") is error

    def test_api_attaches_sql_text(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)], [(1,)])
        text = "select ghost from t"
        with pytest.raises(errors.ReproError) as info:
            db.sql(text)
        assert info.value.sql == text

    def test_api_attaches_sql_on_execution_errors(self):
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)], [(1,)])
        text = "select a / 0 from t"
        with pytest.raises(errors.ExecutionError) as info:
            db.sql(text)
        assert info.value.sql == text
