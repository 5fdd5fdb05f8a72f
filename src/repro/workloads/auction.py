"""The Auction running example (Section 2) and Auction(n) (Section 7.3).

The schema has three relations — Buyer(id, calls), Bids(buyerId, bid),
Log(id, buyerId, bid) — with foreign keys f1: Bids(buyerId) → Buyer(id) and
f2: Log(buyerId) → Buyer(id).  FindBids returns all bids above a threshold;
PlaceBid raises a buyer's bid (conditionally) and logs it.  The SQL below is
the programs' one definition: the Appendix A front-end translates it into
the BTPs of Figure 2 (statement details verbatim), and PlaceBid carries the
annotations q3 = f1(q4), q3 = f1(q5) and q3 = f2(q6).

Auction(n) stores the bids of each of n items in its own relation Bids_i and
has per-item programs FindBids_i / PlaceBid_i, all still updating the shared
Buyer relation.  They are the two translated programs with Bids renamed to
Bids_i and f1 to f1_i, so the SQL is parsed once whatever n is.  The
summary graph has 3n nodes and 9n² + 8n edges (n of them counterflow) —
the closed form reported in Table 2.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.btp.program import BTP, FKConstraint, map_statements
from repro.schema import ForeignKey, Relation, Schema
from repro.workloads.base import Workload

FINDBIDS_SQL = """
UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
SELECT bid FROM Bids WHERE bid >= :T;
COMMIT;
"""

PLACEBID_SQL = """
UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
IF :C < :V THEN
    UPDATE Bids SET bid = :V WHERE buyerId = :B;
END IF;
:logId = uniqueLogId();
INSERT INTO Log VALUES (:logId, :B, :V);
COMMIT;
"""

#: The foreign-key annotations ``q_target = f(q_source)`` of each program.
FK_ANNOTATIONS = {
    "PlaceBid": [
        FKConstraint("f1", source="q4", target="q3"),
        FKConstraint("f1", source="q5", target="q3"),
        FKConstraint("f2", source="q6", target="q3"),
    ]
}


def _auction_schema(items: int) -> Schema:
    """The Auction schema, with ``items`` separate Bids relations for n > 1."""
    buyer = Relation("Buyer", ["id", "calls"], key=["id"])
    log = Relation("Log", ["id", "buyerId", "bid"], key=["id"])
    if items == 1:
        bids_relations = [Relation("Bids", ["buyerId", "bid"], key=["buyerId"])]
        bids_fks = [ForeignKey("f1", "Bids", "Buyer", {"buyerId": "id"})]
    else:
        bids_relations = [
            Relation(f"Bids{i}", ["buyerId", "bid"], key=["buyerId"])
            for i in range(1, items + 1)
        ]
        bids_fks = [
            ForeignKey(f"f1_{i}", f"Bids{i}", "Buyer", {"buyerId": "id"})
            for i in range(1, items + 1)
        ]
    log_fk = ForeignKey("f2", "Log", "Buyer", {"buyerId": "id"})
    return Schema([buyer, *bids_relations, log], [*bids_fks, log_fk])


@lru_cache(maxsize=None)
def auction() -> Workload:
    """The two-program Auction benchmark of Section 2."""
    return Workload.from_sql(
        "Auction",
        _auction_schema(1),
        {"FindBids": FINDBIDS_SQL, "PlaceBid": PLACEBID_SQL},
        FK_ANNOTATIONS,
        abbreviations={"FindBids": "FB", "PlaceBid": "PB"},
    )


def _item_program(template: BTP, item: int) -> BTP:
    """Item ``item``'s copy of an Auction program: ``Bids`` becomes
    ``Bids{item}`` and its foreign key ``f1`` becomes ``f1_{item}``."""
    bids = f"Bids{item}"
    root = map_statements(
        template.root,
        lambda stmt: replace(stmt, relation=bids) if stmt.relation == "Bids" else stmt,
    )
    constraints = [
        replace(c, fk=f"f1_{item}") if c.fk == "f1" else c for c in template.constraints
    ]
    return BTP(f"{template.name}{item}", root, constraints)


#: Largest accepted Auction(n) scale: twice the largest scale the
#: benchmarks run (n = 128), so a request such as ``auction(100000000)``
#: is rejected at once instead of starting unbounded work.
MAX_AUCTION_ITEMS = 256


@lru_cache(maxsize=None)
def auction_n(items: int) -> Workload:
    """Auction(n): 2·n programs over n per-item Bids relations (Section 7.3).

    ``auction_n(1)`` is the Auction benchmark under the name
    ``Auction(1)``; ``n`` ranges over ``1 .. MAX_AUCTION_ITEMS``.
    """
    if not 1 <= items <= MAX_AUCTION_ITEMS:
        raise ValueError(
            f"Auction(n) requires n >= 1 and n <= {MAX_AUCTION_ITEMS}, got {items}"
        )
    if items == 1:
        return replace(auction(), name="Auction(1)", sql={})
    templates = auction().programs
    numbered = [(template, i) for i in range(1, items + 1) for template in templates]
    return Workload(
        name=f"Auction({items})",
        schema=_auction_schema(items),
        programs=tuple(_item_program(template, i) for template, i in numbered),
        abbreviations={
            f"{template.name}{i}": f"{auction().abbreviate(template.name)}{i}"
            for template, i in numbered
        },
    )
