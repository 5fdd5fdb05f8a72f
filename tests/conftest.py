"""Shared fixtures: small schemas and programs used across the test suite."""

from __future__ import annotations

import pytest

from repro.btp.program import BTP, FKConstraint, seq
from repro.btp.statement import Statement
from repro.schema import ForeignKey, Relation, Schema
from repro.summary import pairwise
from repro.workloads import auction, smallbank, tpcc


@pytest.fixture(scope="session")
def pair_schema() -> Schema:
    """Two relations linked by one foreign key, three attributes each."""
    parent = Relation("Parent", ["pk", "a", "b"], key=["pk"])
    child = Relation("Child", ["ck", "parent", "x"], key=["ck"])
    fk = ForeignKey("fp", "Child", "Parent", {"parent": "pk"})
    return Schema([parent, child], [fk])


@pytest.fixture(scope="session")
def single_schema() -> Schema:
    """One relation R(k, v, w) with key k."""
    return Schema([Relation("R", ["k", "v", "w"], key=["k"])])


@pytest.fixture(scope="session")
def smallbank_workload():
    return smallbank()


@pytest.fixture(scope="session")
def tpcc_workload():
    return tpcc()


@pytest.fixture(scope="session")
def auction_workload():
    return auction()


@pytest.fixture
def compile_calls(monkeypatch) -> list[str]:
    """The names of the LTPs ``compile_profile`` compiles while the test
    runs, in call order."""
    calls: list[str] = []
    compile_profile = pairwise.compile_profile

    def counting(program, schema, settings):
        calls.append(program.name)
        return compile_profile(program, schema, settings)

    monkeypatch.setattr(pairwise, "compile_profile", counting)
    return calls


def make_reader(schema: Schema, name: str = "Reader") -> BTP:
    """A program reading R.v by key."""
    r = schema.relation("R")
    return BTP(name, seq(Statement.key_select("r1", r, reads=["v"])))


def make_writer(schema: Schema, name: str = "Writer") -> BTP:
    """A program updating R.v by key."""
    r = schema.relation("R")
    return BTP(name, seq(Statement.key_update("w1", r, reads=["v"], writes=["v"])))


def make_read_then_write(schema: Schema, name: str = "ReadWrite") -> BTP:
    """A program that key-reads R.v and later key-updates R.w."""
    r = schema.relation("R")
    return BTP(
        name,
        seq(
            Statement.key_select("q1", r, reads=["v"]),
            Statement.key_update("q2", r, reads=[], writes=["w"]),
        ),
    )


@pytest.fixture(scope="session")
def child_program(pair_schema: Schema) -> BTP:
    """Writes the parent, then reads the child — FK-protected read."""
    parent = pair_schema.relation("Parent")
    child = pair_schema.relation("Child")
    return BTP(
        "ChildReader",
        seq(
            Statement.key_update("p1", parent, reads=["a"], writes=["a"]),
            Statement.key_select("c1", child, reads=["x"]),
        ),
        constraints=[FKConstraint("fp", source="c1", target="p1")],
    )


@pytest.fixture(scope="session")
def child_writer(pair_schema: Schema) -> BTP:
    """Writes the parent, then writes the child — FK-protected write."""
    parent = pair_schema.relation("Parent")
    child = pair_schema.relation("Child")
    return BTP(
        "ChildWriter",
        seq(
            Statement.key_update("p2", parent, reads=["a"], writes=["a"]),
            Statement.key_update("c2", child, reads=[], writes=["x"]),
        ),
        constraints=[FKConstraint("fp", source="c2", target="p2")],
    )
