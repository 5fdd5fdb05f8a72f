"""The attribute-overlap and foreign-key conditions of Algorithm 1.

``ncDepConds`` decides whether two statements can admit a non-counterflow
dependency based on overlapping write/read/predicate-read attribute sets.
``cDepConds`` decides counterflow admissibility: only (predicate)
rw-antidependencies can be counterflow (Lemma 4.1), and a key-based read
can be "rescued" by foreign keys — if both programs write the referenced
tuple *before* the conflicting statements, a counterflow dependency would
imply a dirty write, which MVRC forbids (see the proof of Proposition 6.3).

This module is the *scalar* formulation (statement-level predicates and
their mask counterparts).  The batch kernel of
:mod:`repro.summary.planes` evaluates algebraically collapsed forms of
the same conditions over packed mask planes::

    ncDepConds = (w_i ∧ (w|r|p)_j) ∨ ((r|p)_i ∧ w_j)
    cDepConds  = (rpw ∧ ¬blocked) ∨ (pw ∧ blocked),  rpw = (r|p)_i ∧ w_j

for whole occurrence-pair batches at once; parity with the functions here
is property-tested edge-for-edge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.btp.ltp import LTP
from repro.btp.statement import Statement, StatementType

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.schema import StatementMasks

#: FK-constraint targets that count as writes for the ``cDepConds`` check.
_WRITE_TARGETS = frozenset(
    {StatementType.KEY_UPDATE, StatementType.KEY_DELETE, StatementType.INSERT}
)


def nc_dep_conds(qi: Statement, qj: Statement) -> bool:
    """``ncDepConds(q_i, q_j)`` of Algorithm 1.

    True when some pair of operations instantiated from ``q_i`` and
    ``q_j`` shares an attribute with at least one side writing it.
    ⊥ attribute sets behave as empty sets.
    """
    return bool(
        qi.writes & qj.writes
        or qi.writes & qj.reads
        or qi.writes & qj.preads
        or qi.reads & qj.writes
        or qi.preads & qj.writes
    )


def c_dep_conds(
    qi: Statement,
    qj: Statement,
    program_i: LTP,
    program_j: LTP,
    use_foreign_keys: bool = True,
    source_pos: int | None = None,
    target_pos: int | None = None,
) -> bool:
    """``cDepConds(q_i, q_j)`` of Algorithm 1.

    ``q_i`` must read (via predicate or key) attributes written by
    ``q_j`` for a counterflow (predicate) rw-antidependency to exist.
    Predicate reads range over the entire relation, so foreign keys can
    never rule them out; for key-based reads, a common foreign key whose
    referenced tuple both programs write *earlier* makes the counterflow
    dependency impossible.

    ``source_pos``/``target_pos`` locate the statement occurrences inside
    the (unfolded) programs; when omitted, the statements' first
    occurrences are used.
    """
    if qi.preads & qj.writes:
        return True
    if qi.reads & qj.writes:
        if use_foreign_keys and _fk_blocks(qi, qj, program_i, program_j, source_pos, target_pos):
            return False
        return True
    return False


def nc_dep_conds_masks(mi: "StatementMasks", mj: "StatementMasks") -> bool:
    """``ncDepConds`` over interned bitmasks — equivalent to
    :func:`nc_dep_conds` when both mask triples come from the same
    :class:`~repro.schema.AttributeInterner` (property-tested).

    ⊥ masks coerce to ``0`` exactly as ⊥ frozensets coerce to ∅.
    """
    wi, wj = mi.writes, mj.writes
    return bool(
        wi & wj or wi & mj.reads or wi & mj.preads or mi.reads & wj or mi.preads & wj
    )


def c_dep_conds_masks(
    mi: "StatementMasks",
    mj: "StatementMasks",
    protecting_i: int,
    protecting_j: int,
    use_foreign_keys: bool = True,
) -> bool:
    """``cDepConds`` over interned bitmasks — equivalent to
    :func:`c_dep_conds` when the masks and the ``protecting_i``/
    ``protecting_j`` foreign-key masks (interned :func:`protecting_fks`
    of the two occurrences) come from the same interner, interned under
    the statements' common relation.

    The compiled kernel precomputes the protecting-FK mask once per
    occurrence position at profile-compile time, where the frozenset path
    rescans the program's constraint instances on every pair.
    """
    wj = mj.writes
    if mi.preads & wj:
        return True
    if mi.reads & wj:
        return not (use_foreign_keys and protecting_i & protecting_j)
    return False


def protecting_fks(program: LTP, position: int) -> frozenset[str]:
    """Foreign keys whose referenced tuple ``program`` writes before ``position``.

    A foreign key ``f`` protects the occurrence at ``position`` when the
    program carries a constraint instance ``q_t = f(q_source)`` for this
    occurrence whose target is a key-based write (``key upd``, ``key del``
    or ``ins``) at an earlier position.
    """
    result = set()
    for instance in program.constraints_for_source(position):
        target = program.statement_at(instance.target_pos)
        if target.stype in _WRITE_TARGETS and instance.target_pos < position:
            result.add(instance.fk)
    return frozenset(result)


def _first_position(program: LTP, statement_name: str) -> int | None:
    positions = program.positions_by_name.get(statement_name)
    return positions[0] if positions else None


def _fk_blocks(
    qi: Statement,
    qj: Statement,
    program_i: LTP,
    program_j: LTP,
    source_pos: int | None,
    target_pos: int | None,
) -> bool:
    """True when a shared foreign key rules out the counterflow dependency.

    This is the paper's check: there are constraints ``q_k = f(q_i)`` in
    ``P_i`` and ``q_ℓ = f(q_j)`` in ``P_j`` over the *same* foreign key
    ``f``, whose targets are key-based writes preceding ``q_i`` resp.
    ``q_j`` — both transactions would then have written the common
    referenced tuple before the conflict, so a counterflow dependency
    would require a dirty write.
    """
    if source_pos is None:
        source_pos = _first_position(program_i, qi.name)
    if target_pos is None:
        target_pos = _first_position(program_j, qj.name)
    if source_pos is None or target_pos is None:
        return False
    return bool(protecting_fks(program_i, source_pos) & protecting_fks(program_j, target_pos))
