"""The condition tables of Table 1, transcribed verbatim.

Entry semantics (Algorithm 1): ``True`` — the dependency is always possible
for these statement types and an edge is added unconditionally; ``False`` —
the dependency is impossible; ``None`` (the paper's ⊥) — possibility depends
on the attribute sets (and, for counterflow, foreign keys), so
``ncDepConds`` / ``cDepConds`` decides.

Row = type of the *source* statement ``q_i`` (the dependency's origin
``b_i``); column = type of the *target* statement ``q_j`` (the depending
operation ``a_j``).
"""

from __future__ import annotations

from repro.btp.statement import StatementType

_INS = StatementType.INSERT
_KSEL = StatementType.KEY_SELECT
_PSEL = StatementType.PRED_SELECT
_KUPD = StatementType.KEY_UPDATE
_PUPD = StatementType.PRED_UPDATE
_KDEL = StatementType.KEY_DELETE
_PDEL = StatementType.PRED_DELETE

#: Column order of Table 1 (also used for row order).
TYPE_ORDER: tuple[StatementType, ...] = (_INS, _KSEL, _PSEL, _KUPD, _PUPD, _KDEL, _PDEL)

TableEntry = bool | None


def _table(rows: dict[StatementType, tuple[TableEntry, ...]]) -> dict[
    tuple[StatementType, StatementType], TableEntry
]:
    result: dict[tuple[StatementType, StatementType], TableEntry] = {}
    for row_type, entries in rows.items():
        if len(entries) != len(TYPE_ORDER):
            raise ValueError(f"row {row_type} must have {len(TYPE_ORDER)} entries")
        for col_type, entry in zip(TYPE_ORDER, entries):
            result[(row_type, col_type)] = entry
    return result


#: Table (1a): when can statements ``q_i``, ``q_j`` admit a
#: *non-counterflow* dependency?
NC_DEP_TABLE = _table(
    {
        #         ins    key sel  pred sel  key upd  pred upd  key del  pred del
        _INS: (False, None, True, None, True, None, True),
        _KSEL: (False, False, False, None, None, None, None),
        _PSEL: (True, False, False, None, None, True, True),
        _KUPD: (False, None, None, None, None, None, None),
        _PUPD: (True, None, None, None, None, True, True),
        _KDEL: (False, False, True, False, True, False, True),
        _PDEL: (True, False, True, None, True, True, True),
    }
)

#: Dense statement-type ids in Table 1 column order; compiled statement
#: profiles store these so the table dispatch of Algorithm 1 becomes a
#: gather over the coded tables below.
TYPE_INDEX: dict[StatementType, int] = {
    stype: index for index, stype in enumerate(TYPE_ORDER)
}


def _rows(
    table: dict[tuple[StatementType, StatementType], TableEntry]
) -> tuple[tuple[TableEntry, ...], ...]:
    """The table re-indexed by dense type ids: ``rows[id_i][id_j]``."""
    return tuple(
        tuple(table[(row_type, col_type)] for col_type in TYPE_ORDER)
        for row_type in TYPE_ORDER
    )


#: Table (1b): when can statements ``q_i``, ``q_j`` admit a *counterflow*
#: dependency?  Only (predicate) rw-antidependencies can be counterflow
#: (Lemma 4.1), which is why rows for write-only statements are all False
#: and the update rows are False as well: the write in the same atomic
#: chunk would create a dirty write for key-based updates, while for
#: predicate-based updates only the predicate read itself (the ``True`` /
#: ``None`` columns) can be counterflow.
C_DEP_TABLE = _table(
    {
        #         ins    key sel  pred sel  key upd  pred upd  key del  pred del
        _INS: (False, False, False, False, False, False, False),
        _KSEL: (False, False, False, None, None, None, None),
        _PSEL: (True, False, False, None, None, True, True),
        _KUPD: (False, False, False, False, False, False, False),
        _PUPD: (True, False, False, None, None, True, True),
        _KDEL: (False, False, False, False, False, False, False),
        _PDEL: (True, False, False, None, None, True, True),
    }
)

#: The same tables pre-resolved per dense type-id pair
#: (``NC_DEP_ROWS[TYPE_INDEX[qi.stype]][TYPE_INDEX[qj.stype]]``).
NC_DEP_ROWS: tuple[tuple[TableEntry, ...], ...] = _rows(NC_DEP_TABLE)
C_DEP_ROWS: tuple[tuple[TableEntry, ...], ...] = _rows(C_DEP_TABLE)

#: Table-entry codes for the batch plane kernel
#: (:mod:`repro.summary.planes`): ``False`` → 0, ``True`` → 1, ⊥ → 2.
#: Integer codes index directly into numpy ``int8`` tables, where the
#: three-valued ``True``/``False``/``None`` objects cannot.
ENTRY_FALSE, ENTRY_TRUE, ENTRY_COND = 0, 1, 2


def _coded(rows: tuple[tuple[TableEntry, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(ENTRY_COND if entry is None else int(entry) for entry in row)
        for row in rows
    )


NC_CODE_ROWS: tuple[tuple[int, ...], ...] = _coded(NC_DEP_ROWS)
C_CODE_ROWS: tuple[tuple[int, ...], ...] = _coded(C_DEP_ROWS)
