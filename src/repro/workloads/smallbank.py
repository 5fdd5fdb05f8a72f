"""The SmallBank benchmark (Appendix E.1).

Three relations — Account(Name, CustomerId), Savings(CustomerId, Balance),
Checking(CustomerId, Balance) — and five linear programs: Amalgamate,
Balance, DepositChecking, TransactSavings, WriteCheck.  The SQL below is
the programs' one definition: the Appendix A front-end translates it into
the BTPs, whose statement details are Figure 10 verbatim (statements
q1…q16, numbered across programs), and ``FK_ANNOTATIONS`` attaches the
foreign-key annotations.
Account(CustomerId) references both Savings(CustomerId) and
Checking(CustomerId); the corresponding annotations never block counterflow
edges (the referenced statements are not writes preceding the reads), which
is why all four analysis settings coincide on SmallBank (Figures 6/7).
"""

from __future__ import annotations

from functools import lru_cache

from repro.btp.program import FKConstraint
from repro.schema import ForeignKey, Relation, Schema
from repro.workloads.base import Workload

AMALGAMATE_SQL = """
SELECT CustomerId INTO :x1 FROM Account WHERE Name = :N1;
SELECT CustomerId INTO :x2 FROM Account WHERE Name = :N2;
UPDATE Savings SET Balance = 0 WHERE CustomerId = :x1 RETURNING Balance INTO :a;
UPDATE Checking SET Balance = 0 WHERE CustomerId = :x1 RETURNING Balance INTO :b;
UPDATE Checking SET Balance = Balance + :a + :b WHERE CustomerId = :x2;
COMMIT;
"""

BALANCE_SQL = """
SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;
SELECT Balance + :a FROM Checking WHERE CustomerId = :x;
COMMIT;
"""

DEPOSIT_CHECKING_SQL = """
SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x;
COMMIT;
"""

TRANSACT_SAVINGS_SQL = """
SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
UPDATE Savings SET Balance = Balance + :V WHERE CustomerId = :x;
COMMIT;
"""

WRITE_CHECK_SQL = """
SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;
SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x;
IF :a + :b < :V THEN
    :V = :V + 1;
END IF;
UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :x;
COMMIT;
"""


#: Each program's SQL, in the order (and so with the q1…q16 numbering) of Figure 10.
SQL = {
    "Amalgamate": AMALGAMATE_SQL,
    "Balance": BALANCE_SQL,
    "DepositChecking": DEPOSIT_CHECKING_SQL,
    "TransactSavings": TRANSACT_SAVINGS_SQL,
    "WriteCheck": WRITE_CHECK_SQL,
}

#: The foreign-key annotations ``q_target = f(q_source)`` of each program.
FK_ANNOTATIONS = {
    "Amalgamate": [
        FKConstraint("fS", source="q1", target="q3"),
        FKConstraint("fC", source="q1", target="q4"),
        FKConstraint("fC", source="q2", target="q5"),
    ],
    "Balance": [
        FKConstraint("fS", source="q6", target="q7"),
        FKConstraint("fC", source="q6", target="q8"),
    ],
    "DepositChecking": [FKConstraint("fC", source="q9", target="q10")],
    "TransactSavings": [FKConstraint("fS", source="q11", target="q12")],
    "WriteCheck": [
        FKConstraint("fS", source="q13", target="q14"),
        FKConstraint("fC", source="q13", target="q15"),
        FKConstraint("fC", source="q13", target="q16"),
    ],
}


@lru_cache(maxsize=None)
def smallbank() -> Workload:
    """The five-program SmallBank workload of Figure 10."""
    schema = Schema(
        [
            Relation("Account", ["Name", "CustomerId"], key=["Name"]),
            Relation("Savings", ["CustomerId", "Balance"], key=["CustomerId"]),
            Relation("Checking", ["CustomerId", "Balance"], key=["CustomerId"]),
        ],
        [
            ForeignKey("fS", "Account", "Savings", {"CustomerId": "CustomerId"}),
            ForeignKey("fC", "Account", "Checking", {"CustomerId": "CustomerId"}),
        ],
    )
    return Workload.from_sql(
        "SmallBank",
        schema,
        SQL,
        FK_ANNOTATIONS,
        abbreviations={
            "Amalgamate": "Am",
            "Balance": "Bal",
            "DepositChecking": "DC",
            "TransactSavings": "TS",
            "WriteCheck": "WC",
        },
    )
