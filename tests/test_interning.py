"""Relation-local interning (``repro.schema.AttributeInterner``) against the
frozenset specification, on generated schemas.

Every relation numbers its attributes, and the FK names protecting its
occurrences, from bit 0 in its own tables, so masks of different relations
share bit positions.  That is exact only because Algorithm 1 compares
statements over the same relation alone.  These tests draw schemas of 2–4
relations whose attribute counts straddle the 64-bit word boundaries
(63/64, 127/128), with FK names reused across relations and FK instances
whose source occurrence lies in any relation, and check:

* two masks of one relation intersect exactly when their attribute (or
  FK-name) sets do;
* every compiled profile's mask planes hold its interned masks word for
  word, no wider than the widest table needs, and the plane sweep's
  blocks equal ``pair_edges_reference`` under all four Section 7.2
  settings.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.btp.ltp import LTP, FKInstance
from repro.btp.statement import Statement, StatementType
from repro.schema import ForeignKey, Relation, Schema
from repro.summary.pairwise import (
    EdgeBlockStore,
    effective_statements,
    pair_edges_reference,
)
from repro.summary.planes import pack, words_for_bits
from repro.summary.settings import ALL_SETTINGS
from repro.workloads import auction_n

#: Attribute counts on both sides of the one- and two-word boundaries.
WIDTHS = (1, 2, 3, 63, 64, 65, 127, 128, 129)

#: FK names shared by every generated relation.
FK_NAMES = ("f0", "f1", "f2")


@st.composite
def schemas(draw) -> Schema:
    """2–4 relations of :data:`WIDTHS` attributes, plus FKs between them
    named from :data:`FK_NAMES`."""
    count = draw(st.integers(2, 4))
    relations = [
        Relation(f"R{r}", [f"a{i}" for i in range(draw(st.sampled_from(WIDTHS)))],
                 key=["a0"])
        for r in range(count)
    ]
    declared = draw(st.lists(st.sampled_from(FK_NAMES), unique=True, max_size=3))
    fks = [
        ForeignKey(name, f"R{draw(st.integers(0, count - 1))}",
                   f"R{draw(st.integers(0, count - 1))}", {"a0": "a0"})
        for name in declared
    ]
    return Schema(relations, fks)


@st.composite
def statements(draw, schema: Schema, name: str) -> Statement:
    """A Figure-5-valid statement over one of ``schema``'s relations."""
    relation = draw(st.sampled_from(schema.relations))
    attrs = list(relation.attributes)

    def subset(min_size: int = 0) -> frozenset[str]:
        return frozenset(
            draw(st.lists(st.sampled_from(attrs), min_size=min_size, max_size=5,
                          unique=True))
        )

    stype = draw(st.sampled_from(sorted(StatementType, key=lambda t: t.value)))
    if stype is StatementType.INSERT:
        sets = (None, None, subset(1))
    elif stype is StatementType.KEY_DELETE:
        sets = (None, None, relation.attribute_set)
    elif stype is StatementType.PRED_DELETE:
        sets = (subset(), None, relation.attribute_set)
    elif stype is StatementType.KEY_SELECT:
        sets = (None, subset(), None)
    elif stype is StatementType.PRED_SELECT:
        sets = (subset(), subset(), None)
    elif stype is StatementType.KEY_UPDATE:
        sets = (None, subset(), subset(1))
    else:
        sets = (subset(), subset(), subset(1))
    return Statement(name, stype, relation.name, *sets)


@st.composite
def ltps(draw, schema: Schema, name: str) -> LTP:
    """A small LTP whose FK instances name any of :data:`FK_NAMES`, with
    source occurrences over any relation."""
    size = draw(st.integers(1, 4))
    stmts = [draw(statements(schema, f"q{index}")) for index in range(size)]
    constraints = [
        FKInstance(
            fk=draw(st.sampled_from(FK_NAMES)),
            source_pos=draw(st.integers(0, size - 1)),
            target_pos=draw(st.integers(0, size - 1)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return LTP(name, stmts, constraints)


@hyp_settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_relation_masks_intersect_exactly_when_the_sets_do(data):
    schema = data.draw(schemas())
    interner = schema.interner
    relation = data.draw(st.sampled_from(schema.relations))
    attrs = list(relation.attributes)
    left, right = (data.draw(st.lists(st.sampled_from(attrs), max_size=6))
                   for _ in range(2))
    assert bool(
        interner.attribute_mask(relation.name, left)
        & interner.attribute_mask(relation.name, right)
    ) == bool(set(left) & set(right))
    fks_left, fks_right = (data.draw(st.lists(st.sampled_from(FK_NAMES)))
                           for _ in range(2))
    assert bool(
        interner.fk_mask(relation.name, fks_left)
        & interner.fk_mask(relation.name, fks_right)
    ) == bool(set(fks_left) & set(fks_right))
    # The widest table, attribute or FK-name, sets the slot width.
    widest = max(
        len(table)
        for tables in (interner._attr_bits, interner._fk_bits)
        for table in tables.values()
    )
    assert interner.widest_table == widest
    assert interner.attribute_mask(relation.name, attrs) < 1 << widest


def _assert_planes_hold_the_masks(program, schema, settings, profile) -> None:
    """Each occurrence's packed mask words reassemble to its interned
    writes and predicate-read masks, whatever the word boundaries."""
    statements = effective_statements(program, schema, settings.granularity)
    for index, occurrence in enumerate(program):
        masks = schema.interner.statement_masks(statements[occurrence.name])
        writes, preads = (
            sum(int(word) << 64 * w for w, word in enumerate(plane[:, index]))
            for plane in pack([profile], [profile])[0].masks[:2]
        )
        assert (writes, preads) == (masks.writes, masks.preads)


@hyp_settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_store_blocks_equal_the_reference_on_generated_schemas(data):
    schema = data.draw(schemas())
    programs = [data.draw(ltps(schema, f"P{index}")) for index in range(3)]
    for settings in ALL_SETTINGS:
        store = EdgeBlockStore(schema, settings)
        store.register(programs)
        store.ensure_blocks()
        words = words_for_bits(schema.interner.widest_table)
        for program in programs:
            profile = store._profiles[program.name]
            _assert_planes_hold_the_masks(program, schema, settings, profile)
            assert profile.words <= words
        for source in programs:
            for target in programs:
                assert store.block(source.name, target.name) == (
                    pair_edges_reference(source, target, schema, settings)
                )


def test_tables_are_relation_local():
    # Every relation's first attribute is bit 0, so the widest relation
    # (3 attributes) sets the width: Auction(n) packs into one word.
    interner = auction_n(64).schema.interner
    assert interner.attribute_mask("Buyer", ["id"]) == 1
    assert interner.attribute_mask("Bids64", ["buyerId"]) == 1
    assert interner.widest_table == 3
    assert interner.attr_bit_count > 64
    # FK names are numbered per occurrence relation, declared ones first.
    schema = Schema(
        [Relation("A", ["k"], key=["k"]), Relation("B", ["k", "a"], key=["k"])],
        [ForeignKey("f", "B", "A", {"a": "k"})],
    )
    interner = schema.interner
    assert interner.fk_mask("B", ["f"]) == interner.fk_mask("A", ["g"]) == 1
    assert interner.fk_mask("B", ["g"]) == interner.fk_mask("A", ["f"]) == 2
    assert (interner.attr_bit_count, interner.fk_bit_count) == (3, 4)
