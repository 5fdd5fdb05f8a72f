"""Multiversion schedules and their validity rules (Section 3.3).

A schedule is the tuple ``(O_s, ≤_s, init_s, v^w_s, v^r_s, Vset_s, ≪_s)``:
the operations of all transactions in a global order, an initial version
per tuple, write/read version functions, version sets for predicate reads,
and a per-tuple version order.  :meth:`Schedule.validate` checks every
bullet of Section 3.3 and raises :class:`~repro.errors.ScheduleError` with
a precise message on violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from repro.errors import ScheduleError
from repro.mvsched.operations import OpKind, Operation
from repro.mvsched.transaction import Transaction
from repro.mvsched.tuples import TupleId, Version, VersionKind


@dataclass(frozen=True)
class Schedule:
    """A multiversion schedule over a set of transactions."""

    transactions: tuple[Transaction, ...]
    order: tuple[Operation, ...]
    init_version: Mapping[TupleId, Version]
    write_version: Mapping[Operation, Version]
    read_version: Mapping[Operation, Version]
    vset: Mapping[Operation, Mapping[TupleId, Version]]
    version_order: Mapping[TupleId, tuple[Version, ...]]
    universe: Mapping[str, tuple[TupleId, ...]] = field(default_factory=dict)

    # -- derived lookups -----------------------------------------------------
    @cached_property
    def by_tx(self) -> dict[int, Transaction]:
        return {t.tx: t for t in self.transactions}

    @cached_property
    def position(self) -> dict[Operation, int]:
        """Global position of each operation (``≤_s``)."""
        return {op: index for index, op in enumerate(self.order)}

    @cached_property
    def commit_position(self) -> dict[int, int]:
        """Global position of each transaction's commit."""
        return {t.tx: self.position[t.commit] for t in self.transactions}

    def before(self, first: Operation, second: Operation) -> bool:
        """``first <_s second`` in the global order."""
        return self.position[first] < self.position[second]

    @cached_property
    def tuples(self) -> tuple[TupleId, ...]:
        """Every tuple referenced anywhere in the schedule."""
        seen: dict[TupleId, None] = {}
        for tuple_id in self.init_version:
            seen.setdefault(tuple_id)
        for op in self.order:
            if op.tuple is not None:
                seen.setdefault(op.tuple)
        for mapping in self.vset.values():
            for tuple_id in mapping:
                seen.setdefault(tuple_id)
        return tuple(seen)

    def version_position(self, version: Version) -> int:
        """The version's rank in its tuple's ``≪_s`` order."""
        order = self.version_order.get(version.tuple)
        if order is None or version not in order:
            raise ScheduleError(f"version {version} is not in the version order")
        return order.index(version)

    def version_before(self, first: Version, second: Version) -> bool:
        """``first ≪_s second`` for two versions of the same tuple."""
        if first.tuple != second.tuple:
            raise ScheduleError(f"{first} and {second} version different tuples")
        return self.version_position(first) < self.version_position(second)

    def writes_on(self, tuple_id: TupleId) -> tuple[Operation, ...]:
        """All write operations on a tuple, in schedule order."""
        return tuple(op for op in self.order if op.is_write and op.tuple == tuple_id)

    # -- validity (Section 3.3) ------------------------------------------------
    def validate(self) -> None:
        """Check all schedule validity rules; raise ScheduleError on failure."""
        self._check_operation_universe()
        self._check_transaction_order()
        self._check_chunks()
        self._check_version_orders()
        self._check_write_versions()
        self._check_read_versions()
        self._check_insert_rule()

    def _check_operation_universe(self) -> None:
        expected = [op for t in self.transactions for op in t.operations]
        if sorted(self.position[op] for op in expected if op in self.position) != list(
            range(len(self.order))
        ) or len(expected) != len(self.order):
            raise ScheduleError("schedule order must contain exactly the transactions' operations")

    def _check_transaction_order(self) -> None:
        for transaction in self.transactions:
            positions = [self.position[op] for op in transaction.operations]
            if positions != sorted(positions):
                raise ScheduleError(
                    f"transaction T{transaction.tx}: operations out of order in the schedule"
                )

    def _check_chunks(self) -> None:
        for transaction in self.transactions:
            for first, last in transaction.chunks:
                start = self.position[transaction.operations[first]]
                end = self.position[transaction.operations[last]]
                for other in self.order[start: end + 1]:
                    if other.tx != transaction.tx:
                        raise ScheduleError(
                            f"atomic chunk of T{transaction.tx} interleaved by {other}"
                        )

    def _check_version_orders(self) -> None:
        for tuple_id, order in self.version_order.items():
            if len(set(order)) != len(order):
                raise ScheduleError(f"duplicate versions in order of {tuple_id}")
            if not order or order[0].kind is not VersionKind.UNBORN:
                raise ScheduleError(f"version order of {tuple_id} must start unborn")
            if order[-1].kind is not VersionKind.DEAD:
                raise ScheduleError(f"version order of {tuple_id} must end dead")
            for version in order:
                if version.tuple != tuple_id:
                    raise ScheduleError(f"foreign version {version} in order of {tuple_id}")
            kinds = [v.kind for v in order]
            if kinds.count(VersionKind.UNBORN) != 1 or kinds.count(VersionKind.DEAD) != 1:
                raise ScheduleError(f"{tuple_id}: exactly one unborn and one dead version")

    def _check_write_versions(self) -> None:
        seen: dict[Version, Operation] = {}
        for op in self.order:
            if not op.is_write:
                continue
            version = self.write_version.get(op)
            if version is None:
                raise ScheduleError(f"write {op} has no created version")
            if version.tuple != op.tuple:
                raise ScheduleError(f"write {op} creates version of wrong tuple {version}")
            if version in seen:
                raise ScheduleError(f"{op} and {seen[version]} create the same version")
            seen[version] = op
            init = self.init_version.get(op.tuple)
            if init is None:
                raise ScheduleError(f"tuple {op.tuple} has no initial version")
            if not self.version_before(init, version):
                raise ScheduleError(f"write {op}: created version not after the initial version")
            if op.kind is OpKind.DELETE and version.kind is not VersionKind.DEAD:
                raise ScheduleError(f"delete {op} must create the dead version")
            if op.kind is not OpKind.DELETE and version.kind is VersionKind.DEAD:
                raise ScheduleError(f"non-delete {op} may not create the dead version")

    def _iter_observations(self) -> Iterable[tuple[Operation, TupleId, Version]]:
        for op in self.order:
            if op.is_read:
                version = self.read_version.get(op)
                if version is None:
                    raise ScheduleError(f"read {op} has no observed version")
                yield op, op.tuple, version
            elif op.is_pred_read:
                mapping = self.vset.get(op)
                if mapping is None:
                    raise ScheduleError(f"predicate read {op} has no version set")
                for tuple_id, version in mapping.items():
                    if tuple_id.relation != op.relation:
                        raise ScheduleError(
                            f"predicate read {op}: version set contains foreign tuple {tuple_id}"
                        )
                    yield op, tuple_id, version

    def _check_read_versions(self) -> None:
        writers = {
            version: op for op, version in self.write_version.items() if op.is_write
        }
        for op, tuple_id, version in self._iter_observations():
            if version.tuple != tuple_id:
                raise ScheduleError(f"{op} observes version {version} of wrong tuple")
            if op.is_read and not version.is_visible:
                # Plain reads must observe visible versions; a predicate
                # read's version set may map a tuple to its unborn (not yet
                # inserted) or dead version — that is how phantom inserts
                # and deletes give rise to predicate (anti)dependencies.
                raise ScheduleError(f"{op} observes non-visible version {version}")
            if version == self.init_version.get(tuple_id):
                continue
            writer = writers.get(version)
            if writer is None:
                raise ScheduleError(f"{op} observes version {version} that nobody wrote")
            if not self.before(writer, op):
                raise ScheduleError(f"{op} observes version written later by {writer}")

    def _check_insert_rule(self) -> None:
        for op in self.order:
            if not op.is_write:
                continue
            version = self.write_version[op]
            earlier_writes = [
                other
                for other in self.order
                if other.is_write
                and other.tuple == op.tuple
                and other != op
                and self.version_before(self.write_version[other], version)
            ]
            is_first_visible = (
                not earlier_writes
                and self.init_version[op.tuple].kind is VersionKind.UNBORN
            )
            if (op.kind is OpKind.INSERT) != is_first_visible:
                if op.kind is OpKind.INSERT:
                    raise ScheduleError(
                        f"insert {op} does not create the first visible version"
                    )
                raise ScheduleError(
                    f"{op} creates the first visible version but is not an insert"
                )

    def __str__(self) -> str:
        return " ".join(str(op) for op in self.order)
