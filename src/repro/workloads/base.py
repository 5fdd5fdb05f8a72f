"""The :class:`Workload` container tying schema, programs and SQL together."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

from repro.btp.program import BTP, FKConstraint
from repro.errors import ProgramError
from repro.schema import Schema
from repro.sqlfront.translate import parse_program

#: Anything :meth:`Workload.resolve` accepts as a workload description.
WorkloadSource = Union["Workload", str, Path, Sequence[BTP]]


@dataclass(frozen=True)
class Workload:
    """A benchmark: a schema plus a set of transaction programs.

    ``abbreviations`` maps program names to the short labels of the paper's
    Figures 6/7 (e.g. ``"Balance" -> "Bal"``); ``sql`` holds each program's
    source text in the Appendix A SQL fragment, when available.  For the
    built-ins and workload files that text is the programs' definition:
    ``programs`` are its translation (:meth:`from_sql`, the loader).
    """

    name: str
    schema: Schema
    programs: tuple[BTP, ...]
    abbreviations: Mapping[str, str] = field(default_factory=dict)
    sql: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [program.name for program in self.programs]
        if len(set(names)) != len(names):
            raise ProgramError(f"workload {self.name!r}: duplicate program names {names!r}")
        for program in self.programs:
            program.validate_against(self.schema)

    @classmethod
    def resolve(
        cls,
        source: WorkloadSource,
        *,
        schema: Schema | None = None,
        name: str | None = None,
    ) -> "Workload":
        """Turn any workload description into a :class:`Workload`.

        Accepted sources (the single entry point behind the CLI and the
        :class:`repro.analysis.Analyzer` session):

        * a :class:`Workload` instance — returned unchanged;
        * a built-in name (``"smallbank"``, ``"tpcc"``, ``"auction"``) or a
          scaled instance (``"auction(5)"``);
        * a :class:`~pathlib.Path` or path string naming a workload file;
        * raw workload-file text (any string containing a newline);
        * a sequence of :class:`BTP` programs together with ``schema=``.
        """
        from repro.workloads.loader import load_workload
        from repro.workloads.registry import get_workload

        if schema is not None:
            if isinstance(source, (Workload, str, Path)):
                raise TypeError(
                    "schema= is only valid with a sequence of BTP programs, "
                    f"not with a {type(source).__name__} source"
                )
            return cls(name or "adhoc", schema, tuple(source))
        if isinstance(source, Workload):
            return source
        if isinstance(source, Path):
            return load_workload(source)
        if isinstance(source, str):
            if "\n" in source:
                return load_workload(source, name or "workload")
            if Path(source).is_file():
                return load_workload(source)
            if "/" in source or Path(source).suffix:
                # looks like a file name, not a built-in workload name
                raise FileNotFoundError(f"workload file not found: {source!r}")
            try:
                return get_workload(source)
            except ValueError as error:
                raise ValueError(f"{error} (and no such workload file exists)") from None
        raise TypeError(
            "cannot resolve a workload from "
            f"{type(source).__name__}; pass a Workload, a built-in name, a file "
            "path, workload text, or a sequence of BTPs with schema=..."
        )

    @classmethod
    def from_sql(
        cls,
        name: str,
        schema: Schema,
        sql: Mapping[str, str],
        constraints: Mapping[str, Sequence[FKConstraint]],
        abbreviations: Mapping[str, str],
    ) -> "Workload":
        """A workload whose programs are translated from ``sql`` (Appendix A).

        Statements are numbered across programs in ``sql`` order, as in the
        paper's figures (Amalgamate has q1…q5, Balance starts at q6, ...);
        ``constraints`` holds each program's foreign-key annotations.
        """
        unknown = sorted(set(constraints) - set(sql))
        if unknown:
            raise ProgramError(f"workload {name!r}: annotations for unknown programs {unknown!r}")
        programs = []
        first_statement = 1
        for program_name, text in sql.items():
            program = parse_program(
                text, schema, program_name, first_statement,
                constraints=constraints.get(program_name, ()),
            )
            first_statement += len(program.statements())
            programs.append(program)
        return cls(name, schema, tuple(programs), abbreviations=abbreviations, sql=dict(sql))

    def with_programs(
        self, programs: Sequence[BTP], validate: Sequence[BTP] = ()
    ) -> "Workload":
        """A copy with a new program tuple, validating only ``validate``.

        The incremental-edit fast path behind
        :meth:`repro.analysis.Analyzer.replace_program`: a plain
        ``dataclasses.replace`` re-validates *every* program against the
        schema, which dominates the cost of swapping one program in a
        large workload.  Programs not listed in ``validate`` must already
        have been validated against this workload's schema (they were —
        they come from an existing workload); duplicate-name checking
        still covers the full tuple.
        """
        programs = tuple(programs)
        names = [program.name for program in programs]
        if len(set(names)) != len(names):
            raise ProgramError(
                f"workload {self.name!r}: duplicate program names {names!r}"
            )
        for program in validate:
            program.validate_against(self.schema)
        # Clone field-by-field from the dataclass definition (not a
        # hard-coded list) so a future Workload field cannot silently be
        # dropped; __post_init__ is deliberately bypassed — it would
        # re-validate every unchanged program, which is the cost this
        # fast path exists to avoid.
        clone = object.__new__(Workload)
        for spec in dataclasses.fields(Workload):
            object.__setattr__(
                clone,
                spec.name,
                programs if spec.name == "programs" else getattr(self, spec.name),
            )
        return clone

    @property
    def program_names(self) -> tuple[str, ...]:
        return tuple(program.name for program in self.programs)

    def program(self, name: str) -> BTP:
        """Look up a program by name."""
        for program in self.programs:
            if program.name == name:
                return program
        raise ProgramError(f"workload {self.name!r}: unknown program {name!r}")

    def subset(self, names: Sequence[str]) -> "Workload":
        """The sub-workload restricted to the given program names."""
        return Workload(
            name=f"{self.name}[{','.join(sorted(names))}]",
            schema=self.schema,
            programs=tuple(self.program(name) for name in names),
            abbreviations=self.abbreviations,
            sql={name: text for name, text in self.sql.items() if name in set(names)},
        )

    def abbreviate(self, program_name: str) -> str:
        """The Figure 6/7 short label for a program (name itself if none)."""
        return dict(self.abbreviations).get(program_name, program_name)

    def __str__(self) -> str:
        return f"workload {self.name}: {len(self.programs)} programs"
