"""Tests for SQL → BTP translation (Appendix A) and workload round-trips."""

import json
from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.btp.program import FKConstraint
from repro.btp.statement import StatementType
from repro.errors import ProgramError, SqlError
from repro.schema import Relation, Schema
from repro.sqlfront import parse_program
from repro.workloads import Workload, auction, smallbank, tpcc

SCHEMA = Schema(
    [
        Relation("R", ["k", "a", "b"], key=["k"]),
        Relation("Pair", ["k1", "k2", "v"], key=["k1", "k2"]),
        Relation("NoKey", ["x", "y"], key=[]),
    ]
)


def only_statement(sql, schema=SCHEMA):
    program = parse_program(sql, schema, "P")
    (stmt,) = program.statements()
    return stmt


class TestKeyVsPredicate:
    def test_full_key_equality_is_key_based(self):
        stmt = only_statement("SELECT a FROM R WHERE k = :x;")
        assert stmt.stype is StatementType.KEY_SELECT
        assert stmt.pread_set is None

    def test_composite_key_requires_all_columns(self):
        key_based = only_statement("SELECT v FROM Pair WHERE k1 = :a AND k2 = :b;")
        assert key_based.stype is StatementType.KEY_SELECT
        partial = only_statement("SELECT v FROM Pair WHERE k1 = :a;")
        assert partial.stype is StatementType.PRED_SELECT
        assert partial.pread_set == frozenset({"k1"})

    def test_non_key_equality_is_predicate(self):
        stmt = only_statement("SELECT a FROM R WHERE a = :x;")
        assert stmt.stype is StatementType.PRED_SELECT

    def test_inequality_on_key_is_predicate(self):
        stmt = only_statement("SELECT a FROM R WHERE k >= :x;")
        assert stmt.stype is StatementType.PRED_SELECT

    def test_key_plus_extra_condition_is_predicate(self):
        stmt = only_statement("SELECT a FROM R WHERE k = :x AND a > 0;")
        assert stmt.stype is StatementType.PRED_SELECT
        assert stmt.pread_set == frozenset({"a", "k"})

    def test_disjunction_is_predicate(self):
        stmt = only_statement("SELECT a FROM R WHERE k = :x OR k = :y;")
        assert stmt.stype is StatementType.PRED_SELECT

    def test_keyless_relation_always_predicate(self):
        stmt = only_statement("SELECT y FROM NoKey WHERE x = :x;")
        assert stmt.stype is StatementType.PRED_SELECT


class TestAttributeSets:
    def test_select_reads_select_list(self):
        stmt = only_statement("SELECT a, b FROM R WHERE k = :x;")
        assert stmt.read_set == frozenset({"a", "b"})

    def test_update_reads_exprs_and_returning(self):
        stmt = only_statement(
            "UPDATE R SET a = b + 1 WHERE k = :x RETURNING a INTO :a;"
        )
        assert stmt.stype is StatementType.KEY_UPDATE
        assert stmt.write_set == frozenset({"a"})
        assert stmt.read_set == frozenset({"a", "b"})

    def test_update_from_params_reads_nothing(self):
        stmt = only_statement("UPDATE R SET a = :v WHERE k = :x;")
        assert stmt.read_set == frozenset()

    def test_pred_update(self):
        stmt = only_statement("UPDATE R SET a = :v WHERE b > 0;")
        assert stmt.stype is StatementType.PRED_UPDATE
        assert stmt.pread_set == frozenset({"b"})

    def test_insert_with_columns(self):
        stmt = only_statement("INSERT INTO R (k, a) VALUES (:x, 1);")
        assert stmt.stype is StatementType.INSERT
        assert stmt.write_set == frozenset({"k", "a"})

    def test_insert_without_columns_writes_all(self):
        stmt = only_statement("INSERT INTO R VALUES (:x, 1, 2);")
        assert stmt.write_set == frozenset({"k", "a", "b"})

    def test_key_delete(self):
        stmt = only_statement("DELETE FROM R WHERE k = :x;")
        assert stmt.stype is StatementType.KEY_DELETE
        assert stmt.write_set == frozenset({"k", "a", "b"})

    def test_pred_delete(self):
        stmt = only_statement("DELETE FROM R WHERE a < 0;")
        assert stmt.stype is StatementType.PRED_DELETE
        assert stmt.pread_set == frozenset({"a"})


class TestNameResolution:
    def test_case_insensitive_relation(self):
        stmt = only_statement("SELECT a FROM r WHERE k = :x;")
        assert stmt.relation == "R"

    def test_case_insensitive_attributes(self):
        stmt = only_statement("SELECT A FROM R WHERE K = :x;")
        assert stmt.read_set == frozenset({"a"})
        assert stmt.stype is StatementType.KEY_SELECT

    def test_unknown_relation_rejected(self):
        with pytest.raises(SqlError):
            only_statement("SELECT a FROM Nope WHERE k = :x;")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SqlError):
            only_statement("SELECT nope FROM R WHERE k = :x;")

    def test_insert_arity_mismatch_rejected(self):
        with pytest.raises(SqlError):
            only_statement("INSERT INTO R VALUES (1, 2);")
        with pytest.raises(SqlError):
            only_statement("INSERT INTO R (k, a) VALUES (1);")


class TestControlFlowTranslation:
    def test_if_becomes_optional(self):
        program = parse_program(
            "IF :c THEN UPDATE R SET a = 1 WHERE k = :x; END IF;", SCHEMA, "P"
        )
        assert str(program.root) == "(q1 | ε)"

    def test_if_else_becomes_choice(self):
        program = parse_program(
            """
            IF :c THEN SELECT a FROM R WHERE k = :x;
            ELSE SELECT b FROM R WHERE k = :x;
            END IF;
            """,
            SCHEMA,
            "P",
        )
        assert str(program.root) == "(q1 | q2)"

    def test_repeat_becomes_loop(self):
        program = parse_program(
            "REPEAT UPDATE R SET a = 1 WHERE k = :x; END REPEAT;", SCHEMA, "P"
        )
        assert str(program.root) == "loop(q1)"

    def test_if_with_only_assignments_disappears(self):
        program = parse_program(
            """
            SELECT a FROM R WHERE k = :x;
            IF :c THEN :v = :v + 1; END IF;
            UPDATE R SET a = :v WHERE k = :x;
            """,
            SCHEMA,
            "P",
        )
        assert program.is_linear
        assert [s.name for s in program.statements()] == ["q1", "q2"]

    def test_empty_program_rejected(self):
        with pytest.raises(SqlError):
            parse_program("COMMIT;", SCHEMA, "P")

    def test_statement_numbering_offset(self):
        program = parse_program(
            "SELECT a FROM R WHERE k = :x;", SCHEMA, "P", first_statement=7
        )
        assert [s.name for s in program.statements()] == ["q7"]


#: The built-in programs as the paper's figures define them, captured from
#: the hand-built BTPs the SQL definitions replaced: per program its AST
#: shape and ``(fk, source, target)`` annotations, per workload source its
#: analysis fingerprint (schema, statements and annotations of every
#: unfolded program).
PIN = json.loads((Path(__file__).parent / "data" / "builtin_programs.json").read_text())


def _workload_cases():
    for factory in (smallbank, auction, tpcc):
        workload = factory()
        for program in workload.programs:
            yield pytest.param(workload, program, id=f"{workload.name}-{program.name}")


@pytest.mark.parametrize("workload,program", list(_workload_cases()))
class TestWorkloadRoundTrip:
    """The bundled SQL translates to exactly the BTPs of Figures 2, 10 and 17."""

    def test_sql_matches_figures(self, workload, program):
        pinned = PIN["programs"][workload.name][program.name]
        assert str(program.root) == pinned["root"]
        assert [
            [c.fk, c.source, c.target] for c in program.constraints
        ] == pinned["constraints"]


@pytest.mark.parametrize("source", list(PIN["fingerprints"]))
def test_builtin_fingerprint_matches_pin(source):
    assert Analyzer(source).fingerprint() == PIN["fingerprints"][source]


def test_from_sql_rejects_annotations_for_unknown_programs():
    workload = smallbank()
    with pytest.raises(ProgramError, match="unknown programs"):
        Workload.from_sql(
            "typo", workload.schema, workload.sql,
            {"Amalgamte": [FKConstraint("f1", source="q1", target="q2")]},
            workload.abbreviations,
        )
