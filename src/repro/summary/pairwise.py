"""The pairwise edge-block engine behind Algorithm 1 — compiled kernel.

Algorithm 1 adds summary-graph edges per *ordered pair* of programs,
looking only at the two programs involved.  This module makes that
structure explicit: :func:`pair_edges` computes the edge block of one
ordered pair ``(P_i, P_j)`` as an independent unit, and
:class:`EdgeBlockStore` caches blocks so that ``SuG(𝒫')`` for *any*
subset ``𝒫' ⊆ 𝒫`` is assembled by concatenating the cached blocks of its
ordered pairs — edge-for-edge identical to running the monolithic loop of
:func:`repro.summary.construct.construct_summary_graph` over ``𝒫'``.

The hot path runs on a **plane-packed batch kernel**
(:mod:`repro.summary.planes`) instead of per-pair Python loops:

* each LTP is compiled, at :meth:`EdgeBlockStore.register` time, to an
  immutable :class:`ProgramProfile` that is also its sweep input: per
  occurrence its statement name and position, and packed planes of its
  interned relation id, dense statement-type id, the three relation-local
  attribute-set bitmasks of :class:`~repro.schema.AttributeInterner` (and
  two combinations of them), and the ``protecting_fks`` foreign-key mask
  precomputed *once per position* (the frozenset path rescans the
  program's constraint instances for every occurrence pair of every
  ordered pair).  Only the attribute masks depend on the settings, and
  only on their granularity (under tuple granularity a defined set is
  the relation's full declared mask).  So the rest — the
  :class:`ProgramLayout` — is compiled once per LTP and session, the
  masks once per granularity, and all four stores of an
  :class:`~repro.analysis.Analyzer` share both through one compile
  cache; forks share the profiles by reference;
* missing blocks are grouped into cross-product **sweeps**, each side
  packed by concatenating its programs' profiles
  (:func:`~repro.summary.planes.pack`), and ``ncDepConds``/``cDepConds``
  are evaluated for the same-relation occurrence pairs of a whole batch
  at once — one numpy kernel, whatever the mask width — whose hits are
  folded, with numpy only, into one CSR segment per sweep instead of
  per-pair edge tuples.

The store keeps each cached block in one form only: a slice of the
immutable CSR :class:`~repro.summary.planes.Segment` of the sweep (or
load) that computed it.  Seven N×N ``int32`` planes over LTP slots
(see :data:`SEG`) hold, per ordered pair, the block's edge counts and
the facts Algorithm 2 reads, plus ``SEG`` and ``AT``: which segment
holds the block (−1: none) and at which cell.  One sweep or load is one
segment and one plane write; presence, missing-pair scans and eviction
are plane reads and writes, and a fork shares the segments by reference
and the planes copy-on-write.  Reads over some names and sweep writes
over a cross product of slots take basic slices when the slots form
ascending runs — a cold store's always do — and ``take`` or an index
mesh otherwise; a read always returns a copy.
:class:`~repro.summary.graph.SummaryEdge` tuples are built from a block's
slice on every read and never cached; only witness blocks, assembled
graphs and :meth:`EdgeBlockStore.blocks` read them.

:func:`pair_edges_reference` keeps the original frozenset formulation as an
executable specification; the plane sweep is property-tested against it
edge-for-edge on every built-in workload under all four Section 7.2
settings.  One-shot :func:`pair_edges` runs the sweep through a throwaway
:class:`EdgeBlockStore`.

The block structure is what enables

* **incremental re-analysis** — replacing one program invalidates only the
  blocks whose source or target belongs to it (its row and its column:
  ``≤ 2n − 1`` of the ``n²`` program-pair blocks), everything else stays
  cached;
* **persistence** — blocks serialize as plain edge lists with
  :meth:`repro.summary.graph.SummaryEdge.to_dict` and are seeded back via
  :meth:`EdgeBlockStore.load_blocks`, which checks them against the
  registered LTPs and folds a batch into one segment (the substrate of
  :meth:`repro.analysis.Analyzer.save_cache`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.btp.ltp import LTP
from repro.btp.statement import Statement
from repro.errors import ProgramError
from repro.faults.deadline import check_deadline
from repro.obs import log as obs_log
from repro.obs.spans import span
from repro.schema import Schema
from repro.summary import planes
from repro.summary.conditions import c_dep_conds, nc_dep_conds, protecting_fks
from repro.summary.graph import SummaryEdge, SummaryGraph, SummaryStats
from repro.summary.settings import AnalysisSettings, Granularity
from repro.summary.tables import C_DEP_TABLE, NC_DEP_TABLE, TYPE_INDEX


def effective_statements(
    program: LTP, schema: Schema, granularity: Granularity
) -> dict[str, Statement]:
    """The program's distinct statements, widened under tuple granularity."""
    statements = program.statements_by_name
    if granularity is Granularity.ATTRIBUTE:
        return dict(statements)
    return {
        name: stmt.widened(schema.attributes(stmt.relation))
        for name, stmt in statements.items()
    }


# ---------------------------------------------------------------------------
# compiled statement profiles
# ---------------------------------------------------------------------------

class ProgramProfile(NamedTuple):
    """One LTP compiled for the kernel: flat, immutable and picklable.

    ``occurrences`` holds each occurrence's ``(statement name, position)``
    in program order.  The rest is the LTP's sweep input, packed once by
    :func:`~repro.summary.planes.occurrence_planes` and
    :func:`~repro.summary.planes.id_planes`: its mask planes, ``words``
    64-bit words wide, and its relation and type ids.
    """

    name: str
    occurrences: tuple[tuple[str, int], ...]
    words: int
    mask_bytes: bytes
    id_bytes: bytes


class ProgramLayout(NamedTuple):
    """The part of an LTP's profile that no setting changes: its
    occurrences, its packed relation and type ids, and each occurrence's
    protecting-FK mask."""

    occurrences: tuple[tuple[str, int], ...]
    fks: tuple[int, ...]
    id_bytes: bytes


def program_layout(program: LTP, schema: Schema) -> ProgramLayout:
    """Compile the setting-independent part of one LTP's profile.

    ``protecting_fks`` is evaluated once per occurrence position here
    instead of once per occurrence *pair* inside ``cDepConds``.
    """
    interner = schema.interner
    statements = program.statements_by_name
    occurrences, rels, types, fks = [], [], [], []
    for occurrence in program:
        stmt = statements[occurrence.name]
        occurrences.append((occurrence.name, occurrence.position))
        rels.append(interner.relation_id(stmt.relation))
        types.append(TYPE_INDEX[stmt.stype])
        protecting = protecting_fks(program, occurrence.position)
        fks.append(interner.fk_mask(stmt.relation, protecting))
    return ProgramLayout(tuple(occurrences), tuple(fks), planes.id_planes(rels, types))


def compile_profile(
    program: LTP,
    schema: Schema,
    settings: AnalysisSettings,
    layout: ProgramLayout | None = None,
) -> ProgramProfile:
    """Compile one LTP to its profile.

    Masks come from the schema's intern table, and only the settings'
    granularity matters, not the FK flag: under tuple granularity a
    defined set is its relation's full declared mask — the masks of
    :func:`effective_statements`' widened statements, without building
    them.  ``layout`` is the LTP's :func:`program_layout`, compiled here
    when not given.
    """
    if layout is None:
        layout = program_layout(program, schema)
    interner = schema.interner
    masks = {}
    for name, stmt in program.statements_by_name.items():
        if settings.granularity is Granularity.ATTRIBUTE:
            mask = interner.statement_masks(stmt)
            masks[name] = mask.writes, mask.reads, mask.preads
        else:
            full = interner.attribute_mask(
                stmt.relation, schema.attributes(stmt.relation)
            )
            sets = stmt.write_set, stmt.read_set, stmt.pread_set
            masks[name] = tuple(0 if value is None else full for value in sets)
    words, mask_bytes = planes.occurrence_planes(
        [masks[name] for name, _ in layout.occurrences], layout.fks
    )
    return ProgramProfile(
        program.name, layout.occurrences, words, mask_bytes, layout.id_bytes
    )


# ---------------------------------------------------------------------------
# reference (frozenset) path — the executable specification
# ---------------------------------------------------------------------------

def _pair_edges_reference(
    program_i: LTP,
    statements_i: dict[str, Statement],
    program_j: LTP,
    statements_j: dict[str, Statement],
    settings: AnalysisSettings,
) -> tuple[SummaryEdge, ...]:
    """The pre-kernel edge block of one ordered pair, over statement objects.

    Kept verbatim as the executable specification of the plane sweep: the
    occurrence loops and the non-counterflow/counterflow interleaving
    reproduce the monolithic Algorithm 1 loop exactly, and the sweep is
    property-tested edge-for-edge against this path.
    """
    edges: list[SummaryEdge] = []
    for occ_i in program_i:
        qi = statements_i[occ_i.name]
        for occ_j in program_j:
            qj = statements_j[occ_j.name]
            if qi.relation != qj.relation:
                continue
            type_pair = (qi.stype, qj.stype)
            nc_entry = NC_DEP_TABLE[type_pair]
            if nc_entry is True or (nc_entry is None and nc_dep_conds(qi, qj)):
                edges.append(
                    SummaryEdge(
                        program_i.name, occ_i.name, occ_i.position,
                        False,
                        occ_j.name, occ_j.position, program_j.name,
                    )
                )
            c_entry = C_DEP_TABLE[type_pair]
            if c_entry is True or (
                c_entry is None
                and c_dep_conds(
                    qi, qj, program_i, program_j,
                    settings.use_foreign_keys,
                    source_pos=occ_i.position,
                    target_pos=occ_j.position,
                )
            ):
                edges.append(
                    SummaryEdge(
                        program_i.name, occ_i.name, occ_i.position,
                        True,
                        occ_j.name, occ_j.position, program_j.name,
                    )
                )
    return tuple(edges)


def pair_edges_reference(
    program_i: LTP,
    program_j: LTP,
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
) -> tuple[SummaryEdge, ...]:
    """:func:`pair_edges` via the original frozenset statement conditions.

    Slower than the plane sweep (it rebuilds ``protecting_fks`` per
    occurrence pair and intersects frozensets); kept as the parity baseline
    for tests and :mod:`benchmarks.bench_kernel`.
    """
    statements_i = effective_statements(program_i, schema, settings.granularity)
    if program_j is program_i:
        statements_j = statements_i
    else:
        statements_j = effective_statements(program_j, schema, settings.granularity)
    return _pair_edges_reference(
        program_i, statements_i, program_j, statements_j, settings
    )


def pair_edges(
    program_i: LTP,
    program_j: LTP,
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
) -> tuple[SummaryEdge, ...]:
    """All edges Algorithm 1 adds for the ordered pair ``(P_i, P_j)``.

    Looks only at the two programs involved (self-pairs included):
    ``SuG(𝒫)`` is exactly the concatenation of ``pair_edges(P_i, P_j)``
    over all ordered pairs of ``𝒫``.  Runs the plane sweep on a throwaway
    :class:`EdgeBlockStore`; a long-lived store compiles and packs each
    program once instead of once per call.
    """
    store = EdgeBlockStore(schema, settings)
    store.register([program_i, program_j])
    return store.block(program_i.name, program_j.name)


#: Planes of a store's ``(7, N, N)`` ``int32`` stack over LTP slots: the
#: five :func:`~repro.summary.planes.fold` aggregates of each slot pair's
#: block (``NC`` / ``CF``: its non-counterflow / counterflow edge counts;
#: ``TRIG``: some edge leaves an R- or PR-operation; ``MAXT``: largest
#: target position; ``MINCF``: smallest counterflow source position),
#: then ``SEG`` (the CSR segment holding the block, −1 for none) and
#: ``AT`` (its cell in that segment).
SEG, AT = 5, 6

#: The stack's value at a slot pair without a block.
_EMPTY = np.array((0, 0, 0, -1, planes.NO_CF, -1, 0), dtype=np.int32)[:, None, None]


def _run(slots: np.ndarray) -> slice | None:
    """``slots`` as a basic slice when they form an ascending run (a cold
    store's slots in registration order do), else ``None``."""
    first = int(slots[0]) if len(slots) else 0
    run = range(first, first + len(slots))
    return slice(first, run.stop) if slots.tolist() == list(run) else None


def _cross(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """The plane index of the slot cross product ``rows × cols``: two
    basic slices when both are runs, else an open mesh."""
    row_run, col_run = _run(rows), _run(cols)
    if row_run is None or col_run is None:
        return np.ix_(rows, cols)
    return row_run, col_run


class EdgeBlockStore:
    """A cache of pairwise edge blocks for one ``(schema, settings)``.

    Register LTPs with :meth:`register` (each is compiled once to its
    kernel profile), then :meth:`graph` assembles ``SuG`` over any subset
    of them from cached blocks, computing only the blocks not seen before.
    :meth:`discard` drops a program together with every block it
    participates in (its own row plus its column, the ``≤ 2n − 1``
    involved blocks), and :meth:`load_block` seeds blocks from persisted
    edge lists without recomputation.

    Blocks live in immutable CSR segments
    (:class:`~repro.summary.planes.Segment`), one per sweep or load
    batch.  A stack of N×N planes over LTP slots holds every block's
    aggregates — :mod:`repro.detection.blockindex` runs Algorithm 2 as
    boolean matrix algebra over them, :meth:`stats` sums their counts
    into the Table 2 columns — and where it is: the slot pair's
    :data:`SEG` cell names its segment (−1: no block) and :data:`AT` its
    cell there.  Presence is a plane read: the missing pairs among some
    names are one mask over their slots, which the **batch plane kernel**
    (:mod:`repro.summary.planes`) groups into cross-product sweeps over
    the programs' compiled profiles.  A read slices
    the block out of its segment and builds its
    :class:`~repro.summary.graph.SummaryEdge` tuples, in deterministic
    pair order.  Plane reads over ``names × names`` and sweep writes are
    basic slices where the slots form ascending runs (see :meth:`_read`).
    :meth:`discard` writes −1 into the freed slot's row and
    column and drops every segment no cell names any more.  Forks share
    the segments by reference and the planes copy-on-write; nothing is
    copied per pair.  Stores are not thread-safe.
    """

    def __init__(
        self,
        schema: Schema,
        settings: AnalysisSettings = AnalysisSettings(),
    ):
        self.schema = schema
        self.settings = settings
        self._ltps: dict[str, LTP] = {}
        self._profiles: dict[str, ProgramProfile] = {}
        #: CSR segments by id (the ``SEG`` plane's values), and the next id.
        self._segments: dict[int, planes.Segment] = {}
        self._next_segment = 0
        #: Plane slot per registered LTP, and the slots that
        #: :meth:`discard` freed for reuse.
        self._slots: dict[str, int] = {}
        self._free_slots: list[int] = []
        #: The plane stack (see :data:`SEG`), covering every allocated slot.
        self._planes = np.empty((7, 0, 0), dtype=np.int32)
        #: True while ``_planes`` may be shared with a :meth:`seed_from`
        #: parent or fork: the next write copies first.
        self._planes_shared = False
        self._computed = 0
        self._loaded = 0
        self._hits = 0
        #: Per LTP name: the LTP, its :func:`program_layout` and its
        #: profile per granularity — shared by the stores of one session
        #: (see :meth:`_share_profiles`), so each is compiled once.
        self._compiled_by_name: dict[
            str, tuple[LTP, ProgramLayout, dict[Granularity, ProgramProfile]]
        ] = {}

    # -- program registration ----------------------------------------------
    def register(self, ltps: Iterable[LTP]) -> None:
        """Add LTPs to the store (idempotent for already-known programs).

        Each new program is compiled once to its kernel profile, or takes
        the layout and profile a store sharing this one's compile cache
        (see :meth:`_share_profiles`) compiled for the same LTP object.
        Re-registering a name with a *different* program is an error; use
        :meth:`discard` first (that is what incremental replacement does).
        """
        taken = len(self._slots)
        try:
            for ltp in ltps:
                known = self._ltps.get(ltp.name)
                if known is None:
                    self._profiles[ltp.name] = self._compiled(ltp)
                    self._ltps[ltp.name] = ltp
                    self._take_slot(ltp.name)
                elif known is not ltp and known != ltp:
                    raise ProgramError(
                        f"edge-block store already holds a different program "
                        f"named {ltp.name!r}; discard it before re-registering"
                    )
        finally:
            if len(self._slots) > taken:
                self._writable_planes()  # grown once per batch, not per slot

    def _compiled(self, ltp: LTP) -> ProgramProfile:
        compiled = self._compiled_by_name
        entry = compiled.get(ltp.name)
        if entry is None or entry[0] is not ltp:
            layout = program_layout(ltp, self.schema)
            entry = compiled[ltp.name] = (ltp, layout, {})
        _, layout, profiles = entry
        granularity = self.settings.granularity
        profile = profiles.get(granularity)
        if profile is None:
            profile = profiles[granularity] = compile_profile(
                ltp, self.schema, self.settings, layout
            )
        return profile

    def _share_profiles(self, other: "EdgeBlockStore") -> None:
        """Share ``other``'s compile cache, before registering anything:
        the stores then compile each LTP's layout once and its profile
        once per granularity.  Both must be over the same schema."""
        self._compiled_by_name = other._compiled_by_name

    def discard(self, names: Iterable[str]) -> None:
        """Drop programs and every cached block they participate in: the
        program's own row and column of ``SEG`` (``≤ 2n − 1`` blocks
        each), never the whole cache."""
        freed = []
        for name in names:
            ltp = self._ltps.pop(name, None)
            if ltp is None:
                continue
            entry = self._compiled_by_name.get(name)
            if entry is not None and entry[0] is ltp:
                del self._compiled_by_name[name]
            del self._profiles[name]
            freed.append(self._slots.pop(name))
        self._free_slots.extend(freed)
        if freed:
            seg = self._writable_planes()[SEG]
            stale = np.concatenate((seg[freed].ravel(), seg[:, freed].ravel()))
            seg[freed] = -1
            seg[:, freed] = -1
            self._drop_dead_segments(stale)

    @property
    def ltp_names(self) -> tuple[str, ...]:
        """Registered LTP names, in registration order."""
        return tuple(self._ltps)

    def ltp(self, name: str) -> LTP:
        try:
            return self._ltps[name]
        except KeyError:
            raise ProgramError(f"edge-block store: unknown program {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ltps

    def _index(self, names: Iterable[str]) -> np.ndarray:
        """The plane slots of registered ``names``, in order."""
        try:
            return np.array([self._slots[name] for name in names], dtype=np.intp)
        except KeyError as error:
            raise ProgramError(
                f"edge-block store: unknown program {error.args[0]!r}"
            ) from None

    # -- blocks -------------------------------------------------------------
    def _install(
        self, region: tuple, segment: planes.Segment, aggregates, cells
    ) -> None:
        """Keep one segment and point the slot pairs of ``region`` (an
        index of the slot axes) at its ``cells``, with their five
        ``aggregates`` — both shaped like the region."""
        segment_id = self._next_segment
        self._next_segment += 1
        self._segments[segment_id] = segment
        stack = self._writable_planes()
        stack[(slice(SEG), *region)] = aggregates
        stack[(SEG, *region)] = segment_id
        stack[(AT, *region)] = cells

    def _drop_dead_segments(self, stale: np.ndarray) -> None:
        """Forget the ``stale`` segments (ids whose cells were just
        overwritten) that no ``SEG`` cell names any more, counting every
        segment's cells in one pass."""
        stale = set(stale.tolist()) - {-1}
        if stale:
            slots = len(self._slots) + len(self._free_slots)
            seg = self._planes[SEG, :slots, :slots]
            cells = np.bincount(seg[seg >= 0], minlength=self._next_segment)
            for segment_id in stale:
                if not cells[segment_id]:
                    del self._segments[segment_id]

    def _edges(
        self, source: str, target: str, segment_id: int, cell: int
    ) -> tuple[SummaryEdge, ...]:
        """One block's edge tuples, built from its CSR slice.

        Coordinates are ``(source occurrence, target occurrence)`` indexes
        in program order, so emitting the non-counterflow edge before the
        counterflow edge per coordinate reproduces the reference loop's
        edge sequence exactly.  Nothing is cached.
        """
        occurrences_i = self._profiles[source].occurrences
        occurrences_j = self._profiles[target].occurrences
        edges: list[SummaryEdge] = []
        append = edges.append
        edge = SummaryEdge
        for s, t, nc, cf in self._segments[segment_id].block(cell):
            source_stmt, source_pos = occurrences_i[s]
            target_stmt, target_pos = occurrences_j[t]
            if nc:
                append(edge(source, source_stmt, source_pos, False,
                            target_stmt, target_pos, target))
            if cf:
                append(edge(source, source_stmt, source_pos, True,
                            target_stmt, target_pos, target))
        return tuple(edges)

    def block(self, source: str, target: str) -> tuple[SummaryEdge, ...]:
        """The edge block of one ordered pair, from cache or computed now."""
        row, col = self._index((source, target)).tolist()
        if self._planes[SEG, row, col] >= 0:
            self._hits += 1
        else:
            self._sweep((source,), (target,), np.ones((1, 1), dtype=bool))
        return self._edges(source, target, *self._planes[SEG:, row, col].tolist())

    def load_block(
        self, source: str, target: str, edges: Iterable[SummaryEdge]
    ) -> None:
        """Seed one block from persisted edges (no recomputation), as a
        one-pair segment (see :meth:`load_blocks`)."""
        self.load_blocks({(source, target): edges})

    def load_blocks(
        self, blocks: Mapping[tuple[str, str], Iterable[SummaryEdge]]
    ) -> None:
        """Seed blocks from persisted edges (no recomputation), folded like
        one sweep into one segment over the batch's sources × targets.

        Raises :class:`ProgramError` for an edge of another pair, or whose
        positions or statement names do not match the registered LTPs; a
        rejected batch installs nothing.
        """
        if not blocks:
            return
        sources = list(dict.fromkeys(source for source, _ in blocks))
        targets = list(dict.fromkeys(target for _, target in blocks))
        self._index((*sources, *targets))  # rejects unknown programs

        def layout(names):
            """Occurrence counts, and each program's ordinal and first row."""
            counts = [len(self._profiles[name].occurrences) for name in names]
            firsts = np.cumsum([0, *counts]).tolist()
            return counts, {name: (i, firsts[i]) for i, name in enumerate(names)}

        (src_counts, src_at), (dst_counts, dst_at) = layout(sources), layout(targets)
        rows, cols, cells, coords = [], [], [], []
        for (source, target), edges in blocks.items():
            names_i = [row[0] for row in self._profiles[source].occurrences]
            names_j = [row[0] for row in self._profiles[target].occurrences]
            flags: dict[tuple[int, int], list[bool]] = {}
            for edge in edges:
                s, t = edge.source_pos, edge.target_pos
                if not (
                    (edge.source, edge.target) == (source, target)
                    and 0 <= s < len(names_i) and names_i[s] == edge.source_stmt
                    and 0 <= t < len(names_j) and names_j[t] == edge.target_stmt
                ):
                    raise ProgramError(
                        f"edge-block store: persisted edge {edge} does not match "
                        f"the registered programs of block ({source!r}, {target!r})"
                    )
                flags.setdefault((s, t), [False, False])[edge.counterflow] = True
            (i, first_s), (j, first_t) = src_at[source], dst_at[target]
            rows.append(self._slots[source])
            cols.append(self._slots[target])
            cells.append(i * len(targets) + j)
            coords.extend(
                (first_s + s, first_t + t, nc, cf)
                for (s, t), (nc, cf) in sorted(flags.items())
            )
        s, t, nc, cf = np.array(coords, dtype=np.intp).reshape(-1, 4).T
        profiles = [self._profiles[name] for name in sources]
        types = planes.pack(profiles, profiles)[0].types
        segment, aggregates = planes.fold(
            s, t, nc.astype(bool), cf.astype(bool), src_counts, dst_counts,
            planes.IS_TRIGGER[types],
        )
        stale = self._planes[SEG, rows, cols]
        cells = np.array(cells)
        self._install((rows, cols), segment, aggregates[:, cells], cells)
        self._loaded += int(np.count_nonzero(stale < 0))
        self._drop_dead_segments(stale)

    def seed_from(self, other: "EdgeBlockStore") -> None:
        """Adopt another store's programs, compiled profiles and blocks.

        The in-process counterpart of :meth:`load_block`: programs carry
        their already-compiled kernel profiles over (no recompilation),
        the adopted blocks count under ``loaded``, and segments are shared
        by reference.  A fresh store takes the other's slots and a copy of
        its segment table, and shares its planes copy-on-write — nothing
        is copied per pair or per program.  A non-empty store
        appends the other's segments under new ids and copies the
        adopted cells by slot.  Both stores must describe the same schema
        and settings — this is what :meth:`repro.analysis.Analyzer.fork`
        builds a candidate-verifying session from.
        """
        if other.schema is not self.schema or other.settings != self.settings:
            raise ProgramError(
                "can only seed an edge-block store from one over the same "
                "schema and settings"
            )
        for name, ltp in other._ltps.items():
            known = self._ltps.get(name)
            if known is not None and known is not ltp and known != ltp:
                raise ProgramError(
                    f"edge-block store already holds a different program named "
                    f"{name!r}; discard it before seeding"
                )
        fresh = not self._ltps
        self._ltps.update(other._ltps)
        self._profiles.update(other._profiles)
        if fresh:
            self._slots = dict(other._slots)
            self._free_slots = list(other._free_slots)
            self._segments = dict(other._segments)
            self._next_segment = other._next_segment
            self._planes = other._planes
            self._planes_shared = other._planes_shared = True
            self._loaded += int(np.count_nonzero(other._planes[SEG] >= 0))
            return
        offset = self._next_segment
        self._segments.update((i + offset, seg) for i, seg in other._segments.items())
        self._next_segment += other._next_segment
        for name in other._ltps:
            if name not in self._slots:
                self._take_slot(name)
        stack = self._writable_planes()
        names = other.ltp_names
        adopted, current = other._read(names), self._read(names)
        present = adopted[SEG] >= 0
        adopted[SEG] += offset
        mine = self._index(names)
        stack[(slice(None), *_cross(mine, mine))] = np.where(present, adopted, current)
        self._loaded += int(np.count_nonzero(present & (current[SEG] < 0)))
        self._drop_dead_segments(current[SEG][present])

    def ensure_blocks(self, names: Sequence[str] | None = None) -> int:
        """Compute every missing block among ``names`` (all registered when
        ``None``) with the batch plane kernel.  Returns the number of
        blocks computed."""
        if names is None:
            names = self.ltp_names
        missing = self._read(names, SEG) < 0
        count = int(np.count_nonzero(missing))
        if count:
            self._sweep(names, names, missing)
        return count

    # -- batch kernel plumbing ---------------------------------------------
    def _sweep(
        self, sources: Sequence[str], targets: Sequence[str], missing: np.ndarray
    ) -> None:
        """Batch-compute the ``missing`` pairs of ``sources × targets``:
        plan sweeps, pack each from the compiled profiles, run them, and
        install each sweep's segment with one plane write."""
        check_deadline("block construction")
        plans = planes.plan_sweeps(missing)
        profiles = self._profiles
        with span("pack"):
            packed = [
                planes.pack(
                    [profiles[sources[i]] for i in rows],
                    [profiles[targets[j]] for j in cols],
                )
                for rows, cols in plans
            ]
        use_fk = self.settings.use_foreign_keys
        swept = []
        with span("sweep"):
            for sides in packed:
                check_deadline("block construction")
                swept.append(planes.sweep(*sides, use_fk))
        count = int(np.count_nonzero(missing))
        obs_log.debug("sweep.batch", pairs=count, sweeps=len(plans))
        source_slots, target_slots = self._index(sources), self._index(targets)
        for (rows, cols), (segment, aggregates) in zip(plans, swept):
            shape = len(rows), len(cols)
            self._install(
                _cross(source_slots[rows], target_slots[cols]),
                segment,
                aggregates.reshape(5, *shape),
                np.arange(shape[0] * shape[1]).reshape(shape),
            )
        self._computed += count

    # -- aggregate planes ---------------------------------------------------
    def _take_slot(self, name: str) -> None:
        """Give ``name`` a plane slot; the caller then grows the stack to
        cover every allocated slot (:meth:`_writable_planes`)."""
        free = self._free_slots
        self._slots[name] = free.pop() if free else len(self._slots)

    def _writable_planes(self) -> np.ndarray:
        """The plane stack, grown to every allocated slot and no longer
        shared with a fork."""
        needed = len(self._slots) + len(self._free_slots)
        current = self._planes
        size = len(current[0])
        if size < needed:
            capacity = max(needed, 2 * size or 8)
            self._planes = np.empty((7, capacity, capacity), dtype=np.int32)
            self._planes[:] = _EMPTY
            self._planes[:, :size, :size] = current
        elif self._planes_shared:
            self._planes = current.copy()
        self._planes_shared = False
        return self._planes

    def _read(self, names: Sequence[str], which=slice(None)) -> np.ndarray:
        """The stack's planes ``which`` (an index of its first axis) over
        ``names × names``, in ``names`` order, as a new array: a copied
        basic slice when the names' slots form an ascending run, a
        ``take`` along both slot axes otherwise.  Never a view, so no
        reader aliases a stack that forks share copy-on-write."""
        index = self._index(names)
        stack = self._planes[which]
        run = _run(index)
        if run is not None:
            return stack[..., run, run].copy()
        return stack.take(index, axis=-2).take(index, axis=-1)

    def _cells(self, names: Sequence[str], which=slice(SEG)) -> np.ndarray:
        """The aggregate planes ``which`` over ``names × names`` in ``names``
        order, computing missing blocks first."""
        self.ensure_blocks(names)
        return self._read(names, which)

    def aggregate_planes(self, names: Sequence[str]) -> tuple[np.ndarray, ...]:
        """``(nc, cf, trigger, max_target, min_cf_source)`` over ``names ×
        names``, the first three as boolean flags (see :data:`SEG`)."""
        cells = self._cells(names)
        nc, cf, trigger = cells[:3] != 0
        return nc, cf, trigger, cells[3], cells[4]

    def stats(self, names: Sequence[str]) -> SummaryStats:
        """The Table 2 counts of ``SuG`` over ``names``, summed from the
        ``NC`` / ``CF`` planes — equal to ``graph(names).stats`` without
        building a single edge."""
        nc, cf = self._cells(names, slice(2)).sum(axis=(1, 2)).tolist()
        return SummaryStats(
            nodes=len(names), edges=nc + cf, counterflow=cf, program_names=tuple(names)
        )

    # -- assembly -----------------------------------------------------------
    def graph(self, names: Sequence[str] | None = None) -> SummaryGraph:
        """``SuG`` over ``names`` (all registered programs when ``None``),
        assembled by concatenating blocks in ordered-pair order — the edge
        sequence is identical to the monolithic Algorithm 1 loop."""
        if names is None:
            names = self.ltp_names
        else:
            names = list(names)
            if len(set(names)) != len(names):
                raise ProgramError(f"duplicate LTP names: {names!r}")
        freshly_computed = self.ensure_blocks(names)
        edges = [edge for _, block in self._cached(names) for edge in block]
        self._hits += len(names) * len(names) - freshly_computed
        return SummaryGraph._assembled(
            {name: self.ltp(name) for name in names}, tuple(edges)
        )

    def _cached(self, names: Sequence[str]):
        """``(pair, edges)`` of every cached block in ``names × names``,
        in pair order."""
        seg, at = self._read(names, slice(SEG, None)).tolist()
        return [
            ((source, target), self._edges(source, target, seg[i][j], at[i][j]))
            for i, source in enumerate(names)
            for j, target in enumerate(names)
            if seg[i][j] >= 0
        ]

    # -- diagnostics --------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Block-cache counters: size, computations, loads, and hits."""
        return {
            "programs": len(self._ltps),
            "blocks": int(np.count_nonzero(self._planes[SEG] >= 0)),
            "computed": self._computed,
            "loaded": self._loaded,
            "hits": self._hits,
        }

    def blocks(self) -> dict[tuple[str, str], tuple[SummaryEdge, ...]]:
        """A snapshot of all cached blocks as edge tuples (for persistence),
        in registration order of source, then of target."""
        return dict(self._cached(self.ltp_names))

    def clear(self) -> None:
        """Drop all programs, profiles, blocks, planes, and counters."""
        self._ltps.clear()
        self._profiles.clear()
        self._compiled_by_name.clear()
        self._segments = {}
        self._next_segment = 0
        self._slots = {}
        self._free_slots = []
        self._planes = np.empty((7, 0, 0), dtype=np.int32)
        self._planes_shared = False
        self._computed = 0
        self._loaded = 0
        self._hits = 0

    def __repr__(self) -> str:
        return (
            f"EdgeBlockStore(settings={self.settings.label!r}, "
            f"programs={len(self._ltps)}, blocks={self.cache_info()['blocks']})"
        )
