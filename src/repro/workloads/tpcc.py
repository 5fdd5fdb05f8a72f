"""The TPC-C benchmark (Appendix E.2).

Nine relations, twelve foreign keys, five programs (Delivery, NewOrder,
OrderStatus, Payment, StockLevel).  The SQL below is the programs' one
definition: the Appendix A front-end translates it into the BTPs.  Their
statement details q1…q29 are Figure 17 verbatim — including its deliberate
deviations from a mechanical Appendix A translation (insert WriteSets list
only the columns the SQL supplies, and ``ReadSet(q23)`` omits
``c_payment_cnt``); the SQL text is phrased so the front-end reproduces
exactly those sets.

Foreign-key annotations (``FK_ANNOTATIONS``) are not spelled out in the
paper; the set used here is derived from TPC-C semantics and documented
choice by choice:

* NewOrder is always placed by a home customer for the home district, so its
  Customer/District/Orders/New_Order/Order_Line statements all reference the
  single district/warehouse of the transaction (f1, f2, f5, f6, f7, f8) and
  each order line references the one inserted order and its item (f8, f9,
  f11).  Stock and Order_Line rows may live at a *remote* supply warehouse,
  so no f10/f12 annotations are added.
* Payment is modelled as a home-district payment (the paying customer
  belongs to the district being updated), giving f2 annotations on the
  customer statements, f1 between district and warehouse, and f3/f4 for the
  History insert.  Without the f2 annotations the counterflow edge
  q24 → q25 (read then write of c_data inside Payment) cannot be excluded
  and no subset containing Payment is detected robust — the published
  Figure 6/7 results therefore imply the authors made the same assumption.
* Delivery processes one order per iteration: the deleted New_Order row,
  the Orders row, its Order_Line rows and the paying customer all belong
  together (f5, f7, f8).  The predicate read q1 may range over many
  New_Order rows, so it is *not* annotated.
* OrderStatus reads the orders of one customer (f7).  StockLevel has no
  usable annotations.
"""

from __future__ import annotations

from functools import lru_cache

from repro.btp.program import FKConstraint
from repro.schema import ForeignKey, Relation, Schema
from repro.workloads.base import Workload

S_DISTS = tuple(f"s_dist_{i:02d}" for i in range(1, 11))


@lru_cache(maxsize=None)
def tpcc_schema() -> Schema:
    """The nine-relation TPC-C schema with foreign keys f1…f12."""
    warehouse = Relation(
        "Warehouse",
        [
            "w_id", "w_name", "w_street_1", "w_street_2", "w_city",
            "w_state", "w_zip", "w_tax", "w_ytd",
        ],
        key=["w_id"],
    )
    district = Relation(
        "District",
        [
            "d_id", "d_w_id", "d_name", "d_street_1", "d_street_2", "d_city",
            "d_state", "d_zip", "d_tax", "d_ytd", "d_next_o_id",
        ],
        key=["d_id", "d_w_id"],
    )
    customer = Relation(
        "Customer",
        [
            "c_id", "c_d_id", "c_w_id", "c_first", "c_middle", "c_last",
            "c_street_1", "c_street_2", "c_city", "c_state", "c_zip",
            "c_phone", "c_since", "c_credit", "c_credit_lim", "c_discount",
            "c_balance", "c_ytd_payment", "c_payment_cnt", "c_delivery_cnt",
            "c_data",
        ],
        key=["c_id", "c_d_id", "c_w_id"],
    )
    history = Relation(
        "History",
        [
            "h_c_id", "h_c_d_id", "h_c_w_id", "h_d_id", "h_w_id",
            "h_date", "h_amount", "h_data",
        ],
        key=[],
    )
    new_order = Relation(
        "New_Order", ["no_o_id", "no_d_id", "no_w_id"], key=["no_o_id", "no_d_id", "no_w_id"]
    )
    orders = Relation(
        "Orders",
        [
            "o_id", "o_d_id", "o_w_id", "o_c_id", "o_entry_id",
            "o_carrier_id", "o_ol_cnt", "o_all_local",
        ],
        key=["o_id", "o_d_id", "o_w_id"],
    )
    order_line = Relation(
        "Order_Line",
        [
            "ol_o_id", "ol_d_id", "ol_w_id", "ol_number", "ol_i_id",
            "ol_supply_w_id", "ol_delivery_d", "ol_quantity", "ol_amount",
            "ol_dist_info",
        ],
        key=["ol_o_id", "ol_d_id", "ol_w_id", "ol_number"],
    )
    item = Relation("Item", ["i_id", "i_im_id", "i_name", "i_price", "i_data"], key=["i_id"])
    stock = Relation(
        "Stock",
        [
            "s_i_id", "s_w_id", "s_quantity", *S_DISTS,
            "s_ytd", "s_order_cnt", "s_remote_cnt", "s_data",
        ],
        key=["s_i_id", "s_w_id"],
    )
    foreign_keys = [
        ForeignKey("f1", "District", "Warehouse", {"d_w_id": "w_id"}),
        ForeignKey("f2", "Customer", "District", {"c_d_id": "d_id", "c_w_id": "d_w_id"}),
        ForeignKey(
            "f3", "History", "Customer",
            {"h_c_id": "c_id", "h_c_d_id": "c_d_id", "h_c_w_id": "c_w_id"},
        ),
        ForeignKey("f4", "History", "District", {"h_d_id": "d_id", "h_w_id": "d_w_id"}),
        ForeignKey(
            "f5", "New_Order", "Orders",
            {"no_o_id": "o_id", "no_d_id": "o_d_id", "no_w_id": "o_w_id"},
        ),
        ForeignKey("f6", "Orders", "District", {"o_d_id": "d_id", "o_w_id": "d_w_id"}),
        ForeignKey(
            "f7", "Orders", "Customer",
            {"o_c_id": "c_id", "o_d_id": "c_d_id", "o_w_id": "c_w_id"},
        ),
        ForeignKey(
            "f8", "Order_Line", "Orders",
            {"ol_o_id": "o_id", "ol_d_id": "o_d_id", "ol_w_id": "o_w_id"},
        ),
        ForeignKey("f9", "Order_Line", "Item", {"ol_i_id": "i_id"}),
        ForeignKey("f10", "Order_Line", "Warehouse", {"ol_supply_w_id": "w_id"}),
        ForeignKey("f11", "Stock", "Item", {"s_i_id": "i_id"}),
        ForeignKey("f12", "Stock", "Warehouse", {"s_w_id": "w_id"}),
    ]
    return Schema(
        [warehouse, district, customer, history, new_order, orders, order_line, item, stock],
        foreign_keys,
    )


DELIVERY_SQL = """
REPEAT
    SELECT no_o_id INTO :no_o_id FROM new_order
        WHERE no_d_id = :d_id AND no_w_id = :w_id;
    DELETE FROM new_order
        WHERE no_o_id = :no_o_id AND no_d_id = :d_id AND no_w_id = :w_id;
    SELECT o_c_id INTO :c_id FROM orders
        WHERE o_id = :no_o_id AND o_d_id = :d_id AND o_w_id = :w_id;
    UPDATE orders SET o_carrier_id = :o_carrier_id
        WHERE o_id = :no_o_id AND o_d_id = :d_id AND o_w_id = :w_id;
    UPDATE order_line SET ol_delivery_d = :datetime
        WHERE ol_o_id = :no_o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
    SELECT ol_amount FROM order_line
        WHERE ol_o_id = :no_o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
    UPDATE customer SET c_balance = c_balance + :ol_total,
                        c_delivery_cnt = c_delivery_cnt + 1
        WHERE c_id = :c_id AND c_d_id = :d_id AND c_w_id = :w_id;
END REPEAT;
COMMIT;
"""

NEW_ORDER_SQL = """
SELECT c_discount, c_last, c_credit INTO :c_discount, :c_last, :c_credit
    FROM customer WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_id = :c_id;
SELECT w_tax INTO :w_tax FROM warehouse WHERE w_id = :w_id;
UPDATE district SET d_next_o_id = d_next_o_id + 1
    WHERE d_id = :d_id AND d_w_id = :w_id
    RETURNING d_next_o_id, d_tax INTO :o_id, :d_tax;
INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_entry_id, o_ol_cnt, o_all_local)
    VALUES (:o_id, :d_id, :w_id, :c_id, :datetime, :o_ol_cnt, :o_all_local);
INSERT INTO new_order (no_o_id, no_d_id, no_w_id) VALUES (:o_id, :d_id, :w_id);
REPEAT
    SELECT i_price, i_name, i_data INTO :i_price, :i_name, :i_data
        FROM item WHERE i_id = :ol_i_id;
    UPDATE stock SET s_quantity = :ol_quantity, s_ytd = :s_ytd,
                     s_order_cnt = :s_order_cnt, s_remote_cnt = :s_remote_cnt
        WHERE s_i_id = :ol_i_id AND s_w_id = :ol_supply_w_id
        RETURNING s_quantity, s_ytd, s_order_cnt, s_remote_cnt, s_data,
                  s_dist_01, s_dist_02, s_dist_03, s_dist_04, s_dist_05,
                  s_dist_06, s_dist_07, s_dist_08, s_dist_09, s_dist_10
        INTO :s_quantity, :s_ytd, :s_order_cnt, :s_remote_cnt, :s_data,
             :s_dist_01, :s_dist_02, :s_dist_03, :s_dist_04, :s_dist_05,
             :s_dist_06, :s_dist_07, :s_dist_08, :s_dist_09, :s_dist_10;
    INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id,
                            ol_supply_w_id, ol_quantity, ol_amount, ol_dist_info)
        VALUES (:o_id, :d_id, :w_id, :ol_number, :ol_i_id,
                :ol_supply_w_id, :ol_quantity, :ol_amount, :ol_dist_info);
END REPEAT;
COMMIT;
"""

ORDER_STATUS_SQL = """
IF <selection of customer by name instead of id> THEN
    SELECT c_balance, c_first, c_middle, c_id
        INTO :c_balance, :c_first, :c_middle, :c_id
        FROM customer WHERE c_last = :c_last AND c_d_id = :d_id AND c_w_id = :w_id;
ELSE
    SELECT c_balance, c_first, c_middle, c_last
        INTO :c_balance, :c_first, :c_middle, :c_last
        FROM customer WHERE c_id = :c_id AND c_d_id = :d_id AND c_w_id = :w_id;
END IF;
SELECT o_id, o_carrier_id, o_entry_id INTO :o_id, :o_carrier_id, :entdate
    FROM orders WHERE o_w_id = :w_id AND o_d_id = :d_id AND o_c_id = :c_id;
SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d
    FROM order_line WHERE ol_o_id = :o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
COMMIT;
"""

PAYMENT_SQL = """
UPDATE warehouse SET w_ytd = w_ytd + :h_amount
    WHERE w_id = :w_id
    RETURNING w_street_1, w_street_2, w_city, w_state, w_zip, w_name
    INTO :w_street_1, :w_street_2, :w_city, :w_state, :w_zip, :w_name;
UPDATE district SET d_ytd = d_ytd + :h_amount
    WHERE d_w_id = :w_id AND d_id = :d_id
    RETURNING d_street_1, d_street_2, d_city, d_state, d_zip, d_name
    INTO :d_street_1, :d_street_2, :d_city, :d_state, :d_zip, :d_name;
IF <selection of customer by name instead of id> THEN
    SELECT c_id INTO :c_id FROM customer
        WHERE c_w_id = :c_w_id AND c_d_id = :c_d_id AND c_last = :c_last;
END IF;
UPDATE customer SET c_balance = c_balance - :h_amount,
                    c_ytd_payment = c_ytd_payment + :h_amount,
                    c_payment_cnt = :c_payment_cnt_new
    WHERE c_w_id = :c_w_id AND c_d_id = :c_d_id AND c_id = :c_id
    RETURNING c_first, c_middle, c_last, c_street_1, c_street_2, c_city,
              c_state, c_zip, c_phone, c_credit, c_credit_lim, c_discount,
              c_balance, c_since
    INTO :c_first, :c_middle, :c_last, :c_street_1, :c_street_2, :c_city,
         :c_state, :c_zip, :c_phone, :c_credit, :c_credit_lim, :c_discount,
         :c_balance, :c_since;
IF <c_credit is BC> THEN
    SELECT c_data INTO :c_data FROM customer
        WHERE c_w_id = :c_w_id AND c_d_id = :c_d_id AND c_id = :c_id;
    UPDATE customer SET c_data = :c_new_data
        WHERE c_w_id = :c_w_id AND c_d_id = :c_d_id AND c_id = :c_id;
END IF;
INSERT INTO history (h_c_d_id, h_c_w_id, h_c_id, h_d_id, h_w_id, h_date, h_amount, h_data)
    VALUES (:c_d_id, :c_w_id, :c_id, :d_id, :w_id, :datetime, :h_amount, :h_data);
COMMIT;
"""

STOCK_LEVEL_SQL = """
SELECT d_next_o_id INTO :o_id FROM district
    WHERE d_w_id = :w_id AND d_id = :d_id;
SELECT ol_i_id FROM order_line
    WHERE ol_w_id = :w_id AND ol_d_id = :d_id
      AND ol_o_id < :o_id AND ol_o_id >= :o_id - 20;
SELECT s_i_id FROM stock
    WHERE s_w_id = :w_id AND s_quantity < :threshold;
COMMIT;
"""


#: Each program's SQL, in the order (and so with the q1…q29 numbering) of Figure 17.
SQL = {
    "Delivery": DELIVERY_SQL,
    "NewOrder": NEW_ORDER_SQL,
    "OrderStatus": ORDER_STATUS_SQL,
    "Payment": PAYMENT_SQL,
    "StockLevel": STOCK_LEVEL_SQL,
}

#: The foreign-key annotations ``q_target = f(q_source)`` of each program;
#: the module docstring gives the reason for each choice.
FK_ANNOTATIONS = {
    "Delivery": [
        FKConstraint("f5", source="q2", target="q3"),
        FKConstraint("f5", source="q2", target="q4"),
        FKConstraint("f7", source="q3", target="q7"),
        FKConstraint("f7", source="q4", target="q7"),
        FKConstraint("f8", source="q5", target="q3"),
        FKConstraint("f8", source="q5", target="q4"),
        FKConstraint("f8", source="q6", target="q3"),
        FKConstraint("f8", source="q6", target="q4"),
    ],
    "NewOrder": [
        FKConstraint("f2", source="q8", target="q10"),
        FKConstraint("f1", source="q10", target="q9"),
        FKConstraint("f6", source="q11", target="q10"),
        FKConstraint("f7", source="q11", target="q8"),
        FKConstraint("f5", source="q12", target="q11"),
        FKConstraint("f8", source="q15", target="q11"),
        FKConstraint("f9", source="q15", target="q13"),
        FKConstraint("f11", source="q14", target="q13"),
    ],
    "OrderStatus": [FKConstraint("f7", source="q18", target="q17")],
    "Payment": [
        FKConstraint("f1", source="q21", target="q20"),
        FKConstraint("f2", source="q22", target="q21"),
        FKConstraint("f2", source="q23", target="q21"),
        FKConstraint("f2", source="q24", target="q21"),
        FKConstraint("f2", source="q25", target="q21"),
        FKConstraint("f3", source="q26", target="q23"),
        FKConstraint("f4", source="q26", target="q21"),
    ],
}


@lru_cache(maxsize=None)
def tpcc() -> Workload:
    """The five-program TPC-C workload of Figure 17."""
    return Workload.from_sql(
        "TPC-C",
        tpcc_schema(),
        SQL,
        FK_ANNOTATIONS,
        abbreviations={
            "Delivery": "Del",
            "NewOrder": "NO",
            "OrderStatus": "OS",
            "Payment": "Pay",
            "StockLevel": "SL",
        },
    )
