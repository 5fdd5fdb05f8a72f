"""The Auction running example (Section 2) and Auction(n) (Section 7.3).

The schema has three relations — Buyer(id, calls), Bids(buyerId, bid),
Log(id, buyerId, bid) — with foreign keys f1: Bids(buyerId) → Buyer(id) and
f2: Log(buyerId) → Buyer(id).  FindBids returns all bids above a threshold;
PlaceBid raises a buyer's bid (conditionally) and logs it.  The BTPs and
statement details are Figure 1/2 verbatim; PlaceBid carries the annotations
q3 = f1(q4), q3 = f1(q5) and q3 = f2(q6).

Auction(n) stores the bids of each of n items in its own relation Bids_i and
has per-item programs FindBids_i / PlaceBid_i, all still updating the shared
Buyer relation; its summary graph has 3n nodes and 9n² + 8n edges (n of them
counterflow) — the closed form reported in Table 2.
"""

from __future__ import annotations

from functools import lru_cache

from repro.btp.program import BTP, FKConstraint, optional, seq
from repro.btp.statement import Statement
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


def _find_bids(schema: Schema, bids_name: str, suffix: str = "") -> BTP:
    buyer = schema.relation("Buyer")
    bids = schema.relation(bids_name)
    q1 = Statement.key_update("q1", buyer, reads=["calls"], writes=["calls"])
    q2 = Statement.pred_select("q2", bids, predicate=["bid"], reads=["bid"])
    return BTP(f"FindBids{suffix}", seq(q1, q2))


def _place_bid(schema: Schema, bids_name: str, fk_name: str, suffix: str = "") -> BTP:
    buyer = schema.relation("Buyer")
    bids = schema.relation(bids_name)
    log = schema.relation("Log")
    q3 = Statement.key_update("q3", buyer, reads=["calls"], writes=["calls"])
    q4 = Statement.key_select("q4", bids, reads=["bid"])
    q5 = Statement.key_update("q5", bids, reads=[], writes=["bid"])
    q6 = Statement.insert("q6", log)
    return BTP(
        f"PlaceBid{suffix}",
        seq(q3, q4, optional(q5), q6),
        constraints=[
            FKConstraint(fk_name, source="q4", target="q3"),
            FKConstraint(fk_name, source="q5", target="q3"),
            FKConstraint("f2", source="q6", target="q3"),
        ],
    )


@lru_cache(maxsize=None)
def auction() -> Workload:
    """The two-program Auction benchmark of Section 2."""
    schema = _auction_schema(1)
    return Workload(
        name="Auction",
        schema=schema,
        programs=(_find_bids(schema, "Bids"), _place_bid(schema, "Bids", "f1")),
        abbreviations={"FindBids": "FB", "PlaceBid": "PB"},
        sql={"FindBids": FINDBIDS_SQL, "PlaceBid": PLACEBID_SQL},
    )


#: Largest accepted Auction(n) scale: twice the largest scale the
#: benchmarks run (n = 128), so a request such as ``auction(100000000)``
#: is rejected at once instead of starting unbounded work.
MAX_AUCTION_ITEMS = 256


@lru_cache(maxsize=None)
def auction_n(items: int) -> Workload:
    """Auction(n): 2·n programs over n per-item Bids relations (Section 7.3).

    ``auction_n(1)`` is the Auction benchmark up to relation naming;
    ``n`` ranges over ``1 .. MAX_AUCTION_ITEMS``.
    """
    if not 1 <= items <= MAX_AUCTION_ITEMS:
        raise ValueError(
            f"Auction(n) requires n >= 1 and n <= {MAX_AUCTION_ITEMS}, got {items}"
        )
    schema = _auction_schema(items)
    programs = []
    abbreviations = {}
    for i in range(1, items + 1):
        bids_name = "Bids" if items == 1 else f"Bids{i}"
        fk_name = "f1" if items == 1 else f"f1_{i}"
        suffix = "" if items == 1 else str(i)
        programs.append(_find_bids(schema, bids_name, suffix))
        programs.append(_place_bid(schema, bids_name, fk_name, suffix))
        abbreviations[f"FindBids{suffix}"] = f"FB{suffix}"
        abbreviations[f"PlaceBid{suffix}"] = f"PB{suffix}"
    return Workload(
        name=f"Auction({items})",
        schema=schema,
        programs=tuple(programs),
        abbreviations=abbreviations,
    )
