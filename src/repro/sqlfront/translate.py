"""Translating parsed SQL into BTPs, following Appendix A.

The translation classifies each statement's WHERE clause as *key-based* (a
conjunction of ``attribute = constant`` equalities pinning at least the
primary key of the relation, and nothing else) or *predicate-based*
(everything else), then derives the statement type and attribute sets:

=====================  =========  =====================================
SQL                    type(q)    sets
=====================  =========  =====================================
SELECT, key WHERE      key sel    ReadSet = select-list attributes
SELECT, pred WHERE     pred sel   + PReadSet = WHERE attributes
UPDATE, key WHERE      key upd    WriteSet = SET targets; ReadSet =
                                  SET-expression ∪ RETURNING attributes
UPDATE, pred WHERE     pred upd   + PReadSet = WHERE attributes
INSERT                 ins        WriteSet = column list (or Attr(R))
DELETE, key WHERE      key del    WriteSet = Attr(R)
DELETE, pred WHERE     pred del   + PReadSet = WHERE attributes
=====================  =========  =====================================

``IF/ELSE`` becomes ``(P|P)`` (or ``(P|ε)`` without ELSE), ``REPEAT``
becomes ``loop(P)``; host-variable assignments and COMMIT translate to
nothing.  Relation and attribute names are resolved case-insensitively
against the schema and canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.btp.program import BTP, Choice, FKConstraint, Loop, Opt, ProgramNode, Seq, Stmt
from repro.btp.statement import Statement
from repro.errors import SqlError
from repro.schema import Relation, Schema
from repro.sqlfront.ast import (
    AssignStmt,
    CommitStmt,
    Comparison,
    Condition,
    DeleteStmt,
    IfStmt,
    InsertStmt,
    RepeatStmt,
    SelectStmt,
    SqlNode,
    SqlProgram,
    UpdateStmt,
)
from repro.sqlfront.parser import parse_sql


@dataclass
class _Translator:
    schema: Schema
    next_index: int = 1
    name_prefix: str = "q"
    statements: list[Statement] = field(default_factory=list)

    def fresh_name(self) -> str:
        name = f"{self.name_prefix}{self.next_index}"
        self.next_index += 1
        return name

    # -- name resolution --------------------------------------------------------
    def resolve_relation(self, name: str) -> Relation:
        relation = self.schema.folded_relations.get(name.lower())
        if relation is None:
            raise SqlError(f"unknown relation {name!r}")
        return relation

    def resolve_attributes(self, relation: Relation, names) -> frozenset[str]:
        canonical = {attr.lower(): attr for attr in relation.attributes}
        resolved = set()
        for name in names:
            attr = canonical.get(name.lower())
            if attr is None:
                raise SqlError(
                    f"unknown attribute {name!r} of relation {relation.name!r}"
                )
            resolved.add(attr)
        return frozenset(resolved)

    # -- WHERE classification ------------------------------------------------------
    def is_key_based(self, relation: Relation, where: Condition) -> bool:
        """Key-based: pure conjunction of pins covering the primary key.

        Every conjunct must be an ``attribute = constant`` equality and the
        pinned attributes must include the whole primary key — then the
        statement accesses exactly one tuple.  A relation without a primary
        key can never be accessed key-based.
        """
        if not relation.key:
            return False
        if not where.is_pure_conjunction:
            return False
        pinned = set()
        for conjunct in where.conjuncts():
            assert isinstance(conjunct, Comparison)
            attribute = conjunct.pinned_attribute()
            if attribute is None:
                return False
            pinned.add(attribute.lower())
        return {attr.lower() for attr in relation.key} <= pinned

    # -- statement translation -------------------------------------------------------
    def translate_node(self, node: SqlNode) -> ProgramNode | None:
        if isinstance(node, SelectStmt):
            if node.extra_relations:
                return self.translate_join_select(node)
            return Stmt(self.translate_select(node))
        if isinstance(node, UpdateStmt):
            return Stmt(self.translate_update(node))
        if isinstance(node, InsertStmt):
            return Stmt(self.translate_insert(node))
        if isinstance(node, DeleteStmt):
            return Stmt(self.translate_delete(node))
        if isinstance(node, IfStmt):
            return self.translate_if(node)
        if isinstance(node, RepeatStmt):
            return self.translate_repeat(node)
        if isinstance(node, (AssignStmt, CommitStmt)):
            return None
        raise SqlError(f"cannot translate {type(node).__name__}")

    def translate_body(self, nodes) -> ProgramNode | None:
        parts = [part for part in (self.translate_node(node) for node in nodes) if part]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def translate_select(self, node: SelectStmt) -> Statement:
        relation = self.resolve_relation(node.relation)
        reads = self.resolve_attributes(relation, node.select_attributes())
        if self.is_key_based(relation, node.where):
            return Statement.key_select(self.fresh_name(), relation, reads)
        predicate = self.resolve_attributes(relation, node.where.attributes())
        return Statement.pred_select(self.fresh_name(), relation, predicate, reads)

    def translate_join_select(self, node: SelectStmt) -> Seq:
        """A multi-relation SELECT (Section 5.4 extension).

        Each relation contributes one predicate-based selection whose
        PReadSet/ReadSet are the statement's WHERE/select attributes
        restricted to that relation; attributes appearing in several
        relations are (conservatively) attributed to each of them.
        Every mentioned attribute must belong to at least one relation.
        """
        relations = [self.resolve_relation(name) for name in node.relations]
        known = frozenset().union(*(rel.attribute_set for rel in relations))
        lowered_known = {attr.lower() for attr in known}
        for attr in node.where.attributes() | node.select_attributes():
            if attr.lower() not in lowered_known:
                raise SqlError(
                    f"unknown attribute {attr!r}: not in any of "
                    f"{[rel.name for rel in relations]}"
                )
        parts = []
        for rel in relations:
            canonical = {attr.lower(): attr for attr in rel.attributes}
            predicate = frozenset(
                canonical[a.lower()] for a in node.where.attributes()
                if a.lower() in canonical
            )
            reads = frozenset(
                canonical[a.lower()] for a in node.select_attributes()
                if a.lower() in canonical
            )
            parts.append(
                Stmt(Statement.pred_select(self.fresh_name(), rel, predicate, reads))
            )
        return Seq(tuple(parts))

    def translate_update(self, node: UpdateStmt) -> Statement:
        relation = self.resolve_relation(node.relation)
        writes = self.resolve_attributes(relation, node.written_attributes())
        reads = self.resolve_attributes(relation, node.read_attributes())
        if self.is_key_based(relation, node.where):
            return Statement.key_update(self.fresh_name(), relation, reads, writes)
        predicate = self.resolve_attributes(relation, node.where.attributes())
        return Statement.pred_update(self.fresh_name(), relation, predicate, reads, writes)

    def translate_insert(self, node: InsertStmt) -> Statement:
        relation = self.resolve_relation(node.relation)
        if node.columns:
            if len(node.columns) != len(node.values):
                raise SqlError(
                    f"INSERT into {relation.name}: {len(node.columns)} columns but "
                    f"{len(node.values)} values"
                )
            columns = self.resolve_attributes(relation, node.columns)
        else:
            if len(node.values) != len(relation.attributes):
                raise SqlError(
                    f"INSERT into {relation.name}: expected {len(relation.attributes)} "
                    f"values, got {len(node.values)}"
                )
            columns = relation.attribute_set
        return Statement.insert(self.fresh_name(), relation, columns)

    def translate_delete(self, node: DeleteStmt) -> Statement:
        relation = self.resolve_relation(node.relation)
        if self.is_key_based(relation, node.where):
            return Statement.key_delete(self.fresh_name(), relation)
        predicate = self.resolve_attributes(relation, node.where.attributes())
        return Statement.pred_delete(self.fresh_name(), relation, predicate)

    def translate_if(self, node: IfStmt) -> ProgramNode | None:
        then_part = self.translate_body(node.then_body)
        else_part = self.translate_body(node.else_body)
        if then_part is None and else_part is None:
            return None
        if then_part is not None and else_part is not None:
            return Choice(then_part, else_part)
        return Opt(then_part if then_part is not None else else_part)

    def translate_repeat(self, node: RepeatStmt) -> ProgramNode | None:
        body = self.translate_body(node.body)
        if body is None:
            return None
        return Loop(body)


def translate(
    program: SqlProgram,
    schema: Schema,
    name: str,
    first_statement: int = 1,
    name_prefix: str = "q",
    constraints: Iterable[FKConstraint] = (),
) -> BTP:
    """Translate a parsed SQL program into a BTP.

    ``first_statement`` sets the number of the first generated statement
    name, so multi-program workloads can keep the paper's global numbering
    (Amalgamate starts at q1, Balance at q6, ...).  ``constraints`` are
    the program's foreign-key annotations, naming the generated statements.
    """
    translator = _Translator(schema, next_index=first_statement, name_prefix=name_prefix)
    root = translator.translate_body(program.body)
    if root is None:
        raise SqlError(f"program {name!r} contains no database statements")
    return BTP(name, root, constraints)


def parse_program(
    sql: str,
    schema: Schema,
    name: str,
    first_statement: int = 1,
    name_prefix: str = "q",
    constraints: Iterable[FKConstraint] = (),
) -> BTP:
    """Parse SQL text and translate it into an annotated BTP in one step."""
    return translate(
        parse_sql(sql), schema, name, first_statement, name_prefix, constraints
    )
