"""Loading user workloads from a single text file.

The format keeps the paper's notation.  Line comments start with ``#``::

    WORKLOAD Auction

    TABLE Buyer (id*, calls)              # '*' marks primary-key attributes
    TABLE Bids (buyerId*, bid)
    TABLE Log (id*, buyerId, bid)
    FK f1: Bids(buyerId) -> Buyer(id)
    FK f2: Log(buyerId) -> Buyer(id)

    PROGRAM FindBids
    UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
    SELECT bid FROM Bids WHERE bid >= :T;
    COMMIT;
    END

    PROGRAM PlaceBid
    ...
    END

    ANNOTATE PlaceBid: q3 = f1(q4)        # the paper's q_target = f(q_source)

Programs are written in the Appendix A SQL fragment and translated through
:mod:`repro.sqlfront`; statements are named ``q1, q2, …`` per program in
order of appearance (inspect them with ``repro analyze <file>``, or
``repro analyze <file> --json`` for machine-readable output), and
``ANNOTATE`` lines attach foreign-key constraints using those names.
Programmatic use goes through ``Analyzer(path)`` or
``Workload.resolve(path)``, both of which route here for files and text.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.btp.program import FKConstraint
from repro.errors import SqlError
from repro.schema import ForeignKey, Relation, Schema
from repro.sqlfront.translate import parse_program
from repro.workloads.base import Workload

_TABLE_RE = re.compile(r"^TABLE\s+(\w+)\s*\(([^)]*)\)\s*$", re.IGNORECASE)
_FK_RE = re.compile(
    r"^FK\s+(\w+)\s*:\s*(\w+)\s*\(([^)]*)\)\s*->\s*(\w+)\s*\(([^)]*)\)\s*$",
    re.IGNORECASE,
)
_PROGRAM_RE = re.compile(r"^PROGRAM\s+(\w+)\s*$", re.IGNORECASE)
_ANNOTATE_RE = re.compile(
    r"^ANNOTATE\s+(\w+)\s*:\s*(\w+)\s*=\s*(\w+)\s*\(\s*(\w+)\s*\)\s*$",
    re.IGNORECASE,
)
_WORKLOAD_RE = re.compile(r"^WORKLOAD\s+(.+?)\s*$", re.IGNORECASE)
_END_RE = re.compile(r"^END\s*$", re.IGNORECASE)


def _strip_comment(line: str) -> str:
    position = line.find("#")
    return line if position < 0 else line[:position]


def _split_names(text: str, line_no: int) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise SqlError("expected a comma-separated attribute list", line_no)
    return names


class _Loader:
    def __init__(self, text: str, default_name: str):
        self.lines = text.splitlines()
        self.name = default_name
        self.relations: list[Relation] = []
        self.foreign_keys: list[ForeignKey] = []
        self.program_sql: dict[str, str] = {}
        self.annotations: dict[str, list[FKConstraint]] = {}

    def load(self) -> Workload:
        index = 0
        while index < len(self.lines):
            raw = self.lines[index]
            line = _strip_comment(raw).strip()
            if not line:
                index += 1
                continue
            if match := _WORKLOAD_RE.match(line):
                self.name = match.group(1)
            elif match := _TABLE_RE.match(line):
                self._add_table(match, index + 1)
            elif match := _FK_RE.match(line):
                self._add_foreign_key(match, index + 1)
            elif match := _PROGRAM_RE.match(line):
                index = self._read_program(match.group(1), index)
            elif match := _ANNOTATE_RE.match(line):
                self._add_annotation(match, index + 1)
            else:
                raise SqlError(f"unrecognized workload line: {line!r}", index + 1)
            index += 1
        return self._build()

    def _add_table(self, match: re.Match, line_no: int) -> None:
        name = match.group(1)
        attributes = []
        key = []
        for item in _split_names(match.group(2), line_no):
            if item.endswith("*"):
                item = item[:-1].strip()
                key.append(item)
            attributes.append(item)
        self.relations.append(Relation(name, attributes, key=key))

    def _add_foreign_key(self, match: re.Match, line_no: int) -> None:
        fk_name, source, source_cols, target, target_cols = match.groups()
        sources = _split_names(source_cols, line_no)
        targets = _split_names(target_cols, line_no)
        if len(sources) != len(targets):
            raise SqlError(
                f"foreign key {fk_name!r}: column count mismatch", line_no
            )
        self.foreign_keys.append(
            ForeignKey(fk_name, source, target, dict(zip(sources, targets)))
        )

    def _read_program(self, name: str, start_index: int) -> int:
        if name in self.program_sql:
            raise SqlError(f"duplicate program {name!r}", start_index + 1)
        body: list[str] = []
        index = start_index + 1
        while index < len(self.lines):
            line = _strip_comment(self.lines[index]).strip()
            if _END_RE.match(line):
                self.program_sql[name] = "\n".join(body)
                return index
            body.append(self.lines[index])
            index += 1
        raise SqlError(f"program {name!r}: missing END", start_index + 1)

    def _add_annotation(self, match: re.Match, line_no: int) -> None:
        program, target, fk, source = match.groups()
        self.annotations.setdefault(program, []).append(
            FKConstraint(fk, source=source, target=target)
        )

    def _build(self) -> Workload:
        if not self.relations:
            raise SqlError("workload file declares no tables")
        if not self.program_sql:
            raise SqlError("workload file declares no programs")
        schema = Schema(self.relations, self.foreign_keys)
        for program_name in self.annotations:
            if program_name not in self.program_sql:
                raise SqlError(
                    f"ANNOTATE references unknown program {program_name!r}"
                )
        programs = tuple(
            parse_program(
                sql, schema, program_name,
                constraints=self.annotations.get(program_name, ()),
            )
            for program_name, sql in self.program_sql.items()
        )
        return Workload(
            name=self.name,
            schema=schema,
            programs=programs,
            sql=dict(self.program_sql),
        )


def load_workload(source: str | Path, name: str = "workload") -> Workload:
    """Load a workload from file contents or a path.

    ``source`` may be a :class:`~pathlib.Path`, a path string, or the
    workload text itself.  A string containing a newline is always treated
    as text; a single-line string is treated as a file name and must exist
    — a missing file raises :class:`FileNotFoundError` instead of being
    silently (mis)parsed as workload content.  (``Analyzer("my.workload")``
    and ``Workload.resolve`` route through here, so CLI typos surface as a
    clear file error.)
    """
    if isinstance(source, Path):
        if not source.exists():
            raise FileNotFoundError(f"workload file not found: {source}")
        return _Loader(source.read_text(), source.stem).load()
    if "\n" in source:
        return _Loader(source, name).load()
    path = Path(source)
    if path.exists():
        return _Loader(path.read_text(), path.stem).load()
    raise FileNotFoundError(
        f"workload file not found: {source!r} "
        "(raw workload text must contain newlines)"
    )
