"""The BTP program AST and foreign-key annotations (Section 5.1).

The grammar is ``P ← loop(P) | (P | P) | (P | ε) | P;P | q``.  AST nodes are
immutable; statements may appear only once per program (their names act as
identifiers, exactly as ``q1 … q29`` do in the paper's figures), which makes
foreign-key annotations of the form ``q_target = f(q_source)`` unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.btp.statement import Statement, StatementType
from repro.errors import ProgramError
from repro.schema import Schema


class ProgramNode:
    """Base class for BTP AST nodes."""

    def statements(self) -> Iterator[Statement]:
        """Yield every statement in the subtree, in syntactic order."""
        raise NotImplementedError

    def enclosing_loops(self) -> dict[str, tuple[int, ...]]:
        """Map each statement name to the ids of loops enclosing it."""
        result: dict[str, tuple[int, ...]] = {}
        self._collect_loops(result, ())
        return result

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Stmt(ProgramNode):
    """A leaf node wrapping a single statement ``q``."""

    statement: Statement

    def statements(self) -> Iterator[Statement]:
        yield self.statement

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        result[self.statement.name] = loops

    def __str__(self) -> str:
        return self.statement.name


@dataclass(frozen=True)
class Seq(ProgramNode):
    """Sequential composition ``P1; P2; …; Pk``."""

    parts: tuple[ProgramNode, ...]

    def statements(self) -> Iterator[Statement]:
        for part in self.parts:
            yield from part.statements()

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        for part in self.parts:
            part._collect_loops(result, loops)

    def __str__(self) -> str:
        return "; ".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class Choice(ProgramNode):
    """Branching ``(P1 | P2)`` — exactly one alternative executes."""

    left: ProgramNode
    right: ProgramNode

    def statements(self) -> Iterator[Statement]:
        yield from self.left.statements()
        yield from self.right.statements()

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        self.left._collect_loops(result, loops)
        self.right._collect_loops(result, loops)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Opt(ProgramNode):
    """Optional execution ``(P | ε)``."""

    body: ProgramNode

    def statements(self) -> Iterator[Statement]:
        yield from self.body.statements()

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        self.body._collect_loops(result, loops)

    def __str__(self) -> str:
        return f"({self.body} | ε)"


@dataclass(frozen=True)
class Loop(ProgramNode):
    """Iteration ``loop(P)`` — the body repeats a finite number of times."""

    body: ProgramNode

    def statements(self) -> Iterator[Statement]:
        yield from self.body.statements()

    def _collect_loops(self, result: dict[str, tuple[int, ...]], loops: tuple[int, ...]) -> None:
        self.body._collect_loops(result, loops + (id(self),))

    def __str__(self) -> str:
        return f"loop({self.body})"


def _as_node(part: ProgramNode | Statement) -> ProgramNode:
    if isinstance(part, Statement):
        return Stmt(part)
    if isinstance(part, ProgramNode):
        return part
    raise ProgramError(f"expected a Statement or ProgramNode, got {type(part).__name__}")


def seq(*parts: ProgramNode | Statement) -> ProgramNode:
    """Build ``P1; …; Pk``; a single part is returned unchanged."""
    if not parts:
        raise ProgramError("seq() requires at least one part")
    nodes = tuple(_as_node(part) for part in parts)
    if len(nodes) == 1:
        return nodes[0]
    return Seq(nodes)


def choice(left: ProgramNode | Statement, right: ProgramNode | Statement) -> Choice:
    """Build ``(P1 | P2)``."""
    return Choice(_as_node(left), _as_node(right))


def optional(body: ProgramNode | Statement) -> Opt:
    """Build ``(P | ε)``."""
    return Opt(_as_node(body))


def loop(body: ProgramNode | Statement) -> Loop:
    """Build ``loop(P)``."""
    return Loop(_as_node(body))


def map_statements(node: ProgramNode, transform) -> ProgramNode:
    """The AST of the same shape with every statement passed through ``transform``.

    A leaf whose statement ``transform`` returns unchanged is kept as is.
    """
    if isinstance(node, Stmt):
        new = transform(node.statement)
        return node if new is node.statement else Stmt(new)
    if isinstance(node, Seq):
        return Seq(tuple(map_statements(part, transform) for part in node.parts))
    if isinstance(node, Choice):
        return Choice(map_statements(node.left, transform), map_statements(node.right, transform))
    if isinstance(node, Opt):
        return Opt(map_statements(node.body, transform))
    if isinstance(node, Loop):
        return Loop(map_statements(node.body, transform))
    raise ProgramError(f"unknown node type {type(node).__name__}")


def map_statement(node: ProgramNode, name: str, transform) -> ProgramNode:
    """Rewrite the single statement ``name`` inside an AST via ``transform``.

    The AST-rewriting primitive shared by the repair catalog and the churn
    mutation catalog (:mod:`repro.churn.mutations`); a name that does not
    occur leaves the tree unchanged, so callers check existence first.
    """
    return map_statements(
        node, lambda stmt: transform(stmt) if stmt.name == name else stmt
    )


@dataclass(frozen=True)
class FKConstraint:
    """A foreign-key annotation ``q_target = f(q_source)`` on a BTP.

    ``source`` names the statement over ``dom(f)`` (the referencing side)
    and ``target`` the statement over ``range(f)`` (the referenced side);
    the paper requires the target to be key-based.  For instance the
    running example annotates PlaceBid with ``q3 = f1(q4)``: here
    ``fk="f1"``, ``source="q4"`` (over Bids) and ``target="q3"``
    (over Buyer).
    """

    fk: str
    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.target} = {self.fk}({self.source})"


#: Statement types acceptable as the *target* of a foreign-key constraint
#: ("key-based" in the sense of Section 5.1: they access exactly one tuple).
KEY_BASED_TARGETS = frozenset(
    {
        StatementType.INSERT,
        StatementType.KEY_SELECT,
        StatementType.KEY_UPDATE,
        StatementType.KEY_DELETE,
    }
)


@dataclass(frozen=True)
class BTP:
    """A named basic transaction program with foreign-key annotations."""

    name: str
    root: ProgramNode
    constraints: tuple[FKConstraint, ...] = ()

    def __init__(
        self,
        name: str,
        root: ProgramNode | Statement,
        constraints: Iterable[FKConstraint] = (),
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "root", _as_node(root))
        object.__setattr__(self, "constraints", tuple(constraints))
        if not name:
            raise ProgramError("program name must be a non-empty string")
        self._validate()

    def _validate(self) -> None:
        names = [stmt.name for stmt in self.root.statements()]
        if len(set(names)) != len(names):
            raise ProgramError(
                f"program {self.name!r}: statement names must be unique, got {names!r}"
            )
        by_name = self.statements_by_name()
        for constraint in self.constraints:
            for role, stmt_name in (("source", constraint.source), ("target", constraint.target)):
                if stmt_name not in by_name:
                    raise ProgramError(
                        f"program {self.name!r}: constraint {constraint} references unknown "
                        f"{role} statement {stmt_name!r}"
                    )
            target = by_name[constraint.target]
            if target.stype not in KEY_BASED_TARGETS:
                raise ProgramError(
                    f"program {self.name!r}: constraint {constraint} target must be key-based, "
                    f"got {target.stype.value!r}"
                )

    def statements(self) -> tuple[Statement, ...]:
        """All statements of the program in syntactic order."""
        return tuple(self.root.statements())

    def statements_by_name(self) -> dict[str, Statement]:
        """Statement lookup by name."""
        return {stmt.name: stmt for stmt in self.root.statements()}

    @property
    def is_linear(self) -> bool:
        """True when the program contains no loops or branching (an LTP)."""
        return _is_linear(self.root)

    def validate_against(self, schema: Schema) -> None:
        """Check all statements and constraints against a schema."""
        for stmt in self.root.statements():
            stmt.validate_against(schema.relation(stmt.relation))
        by_name = self.statements_by_name()
        for constraint in self.constraints:
            fk = schema.foreign_key(constraint.fk)
            source = by_name[constraint.source]
            target = by_name[constraint.target]
            if source.relation != fk.source:
                raise ProgramError(
                    f"program {self.name!r}: constraint {constraint}: source statement is over "
                    f"{source.relation!r} but dom({fk.name}) = {fk.source!r}"
                )
            if target.relation != fk.target:
                raise ProgramError(
                    f"program {self.name!r}: constraint {constraint}: target statement is over "
                    f"{target.relation!r} but range({fk.name}) = {fk.target!r}"
                )

    def widened(self, schema: Schema) -> "BTP":
        """The tuple-granularity version of the program (see Section 7.2)."""
        return BTP(
            self.name,
            map_statements(
                self.root, lambda stmt: stmt.widened(schema.attributes(stmt.relation))
            ),
            self.constraints,
        )

    def __str__(self) -> str:
        return f"{self.name} := {self.root}"


def _is_linear(node: ProgramNode) -> bool:
    if isinstance(node, Stmt):
        return True
    if isinstance(node, Seq):
        return all(_is_linear(part) for part in node.parts)
    return False
