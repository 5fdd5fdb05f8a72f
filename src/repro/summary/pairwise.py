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

* each LTP is compiled once, at :meth:`EdgeBlockStore.register` time, to a
  flat :class:`ProgramProfile` — per occurrence: statement name, position,
  interned relation id, dense statement-type id, the three attribute-set
  bitmasks of :class:`~repro.schema.AttributeInterner`, and the
  ``protecting_fks`` foreign-key mask precomputed *once per position*
  (the frozenset path rescans the program's constraint instances for every
  occurrence pair of every ordered pair);
* profiles' masks are packed into the store's contiguous
  :class:`~repro.summary.planes.PlaneArena`; missing blocks are grouped
  into cross-product **sweeps** and ``ncDepConds``/``cDepConds`` are
  evaluated for whole occurrence-pair batches at once — numpy
  AND/compare passes over the planes that emit per-block packed
  coordinates instead of per-pair edge tuples.

The store keeps each cached block as **one record** (:class:`_Block`) in
its source program's row: the packed coordinates until something asks for
the :class:`~repro.summary.graph.SummaryEdge` tuples.  Forks share the
records by reference.  The per-block facts Algorithm 2 reads live in the store's
:class:`_AggregatePlanes` (N×N arrays over LTP slots), which the sweep
fills in the same pass that groups coordinates into blocks.

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
* **persistence** — blocks are plain edge lists that serialize with
  :meth:`repro.summary.graph.SummaryEdge.to_dict` and can be seeded back
  via :meth:`EdgeBlockStore.load_block` (the substrate of
  :meth:`repro.analysis.Analyzer.save_cache`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

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
from repro.summary.graph import SummaryEdge, SummaryGraph
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

#: One occurrence, compiled: ``(stmt_name, position, relation_id, type_id,
#: writes_mask, reads_mask, preads_mask, protecting_fk_mask)`` — ⊥ masks
#: coerce to 0, exactly as the frozenset conditions coerce ⊥ to ∅.
OccurrenceRow = tuple[str, int, int, int, int, int, int, int]


class ProgramProfile(NamedTuple):
    """One LTP compiled for the kernel: flat and immutable; ``occurrences``
    preserves program order, and ``triggers`` flags the occurrences that
    are R- or PR-operations."""

    name: str
    occurrences: tuple[OccurrenceRow, ...]
    triggers: tuple[bool, ...]


def compile_profile(
    program: LTP, schema: Schema, settings: AnalysisSettings
) -> ProgramProfile:
    """Compile one LTP to its flat statement profile.

    Masks come from the schema's intern table; ``protecting_fks`` is
    evaluated once per occurrence position here instead of once per
    occurrence *pair* inside ``cDepConds``.
    """
    interner = schema.interner
    statements = effective_statements(program, schema, settings.granularity)
    rows: list[OccurrenceRow] = []
    for occurrence in program:
        stmt = statements[occurrence.name]
        masks = interner.statement_masks(stmt)
        rows.append(
            (
                occurrence.name,
                occurrence.position,
                interner.relation_id(stmt.relation),
                TYPE_INDEX[stmt.stype],
                masks.writes,
                masks.reads,
                masks.preads,
                interner.fk_mask(protecting_fks(program, occurrence.position)),
            )
        )
    return ProgramProfile(
        program.name,
        tuple(rows),
        tuple(row[3] in planes.TRIGGER_TYPE_IDS for row in rows),
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


#: One packed block: ``(source occurrence, target occurrence,
#: non-counterflow?, counterflow?)`` per interfering occurrence pair.
Coords = tuple[tuple[int, int, bool, bool], ...]


class _Block:
    """One cached edge block of an ordered pair — the store's only record.

    ``coords`` holds the sweep's packed coordinates until the first read
    turns them into the :class:`~repro.summary.graph.SummaryEdge` tuple
    ``edges`` (loaded blocks start out materialized).  The block's
    aggregate facts live in the store's planes, not here (see
    :class:`_AggregatePlanes`).

    Records are shared by reference between a store and its
    :meth:`~EdgeBlockStore.seed_from` forks, which may run on different
    threads.  The lazily filled fields stay safe for concurrent readers
    because every reader loads ``coords`` before ``edges`` and every
    writer stores ``edges`` before clearing ``coords`` — a reader that
    sees ``coords is None`` always finds ``edges`` set — and because two
    racing fills compute equal values, so the last write wins harmlessly.
    """

    __slots__ = ("coords", "edges")

    def __init__(
        self, coords: Coords | None, edges: tuple[SummaryEdge, ...] | None = None
    ):
        self.coords = coords
        self.edges = edges


class _AggregatePlanes:
    """The per-block facts Algorithm 2 reads, as five N×N planes indexed
    by LTP slot (one :func:`~repro.summary.planes.aggregate` per cell):
    ``NC`` / ``CF`` (the block has a non-counterflow / counterflow edge),
    ``TRIG`` (some edge leaves an R- or PR-operation), ``MAXT`` (largest
    target position) and ``MINCF`` (smallest counterflow source
    position).  :mod:`repro.detection.blockindex` runs Algorithm 2 as
    boolean matrix algebra over them.  The planes share one ``int32``
    array, so a batch write or a gather is one numpy call for all five.
    """

    __slots__ = ("cells",)

    #: Cell value of a slot pair without a block (an empty aggregate).
    EMPTY = (0, 0, 0, -1, planes.NO_CF)

    def __init__(self, capacity: int, old: "_AggregatePlanes | None" = None):
        self.cells = np.empty((5, capacity, capacity), dtype=np.int32)
        self.cells[:] = np.array(self.EMPTY, dtype=np.int32)[:, None, None]
        if old is not None:
            size = min(old.capacity, capacity)
            self.cells[:, :size, :size] = old.cells[:, :size, :size]

    @property
    def capacity(self) -> int:
        return self.cells.shape[1]

    def write(self, sources: list[int], targets: list[int], aggregates) -> None:
        """Set the cells ``(sources[i], targets[i])`` to ``aggregates[i]``."""
        self.cells[:, sources, targets] = np.array(aggregates, dtype=np.int32).T

    def write_grid(self, sources: list[int], targets: list[int], columns) -> None:
        """Set the ``sources × targets`` cells from five row-major lists."""
        rows = np.array(sources, dtype=np.intp)[:, None]
        values = np.array(columns, dtype=np.int32)
        self.cells[:, rows, targets] = values.reshape(5, len(sources), len(targets))

    def gather(self, slots: Sequence[int]) -> tuple[np.ndarray, ...]:
        """``(NC, CF, TRIG, MAXT, MINCF)`` restricted to ``slots × slots``."""
        index = np.array(slots, dtype=np.intp)
        sub = self.cells[:, index[:, None], index]
        nc, cf, trigger = sub[:3] != 0
        return nc, cf, trigger, sub[3], sub[4]


class EdgeBlockStore:
    """A cache of pairwise edge blocks for one ``(schema, settings)``.

    Register LTPs with :meth:`register` (each is compiled once to its
    kernel profile), then :meth:`graph` assembles ``SuG`` over any subset
    of them from cached blocks, computing only the blocks not seen before.
    :meth:`discard` drops a program together with every block it
    participates in (its own row plus its column, the ``≤ 2n − 1``
    involved blocks), and :meth:`load_block` seeds blocks from persisted
    edge lists without recomputation.

    Each cached block is one :class:`_Block` record in a per-program row
    (``rows[source][target]``).  Missing blocks are computed by the
    **batch plane kernel** (:mod:`repro.summary.planes`): the store packs
    registered profiles into a :class:`~repro.summary.planes.PlaneArena`,
    groups missing pairs into cross-product sweeps, and keeps the results
    as packed coordinates that materialize to
    :class:`~repro.summary.graph.SummaryEdge` tuples lazily, on first
    access, in deterministic pair order.  Stores are not thread-safe;
    only the records they share with forks are (see :class:`_Block`).
    """

    def __init__(
        self,
        schema: Schema,
        settings: AnalysisSettings = AnalysisSettings(),
    ):
        self.schema = schema
        self.settings = settings
        self._arena: planes.PlaneArena | None = None
        self._ltps: dict[str, LTP] = {}
        self._profiles: dict[str, ProgramProfile] = {}
        #: One row per registered LTP: target name → cached block record.
        self._rows: dict[str, dict[str, _Block]] = {}
        #: Aggregate-plane slot per registered LTP, and the slots that
        #: :meth:`discard` freed for reuse.
        self._slots: dict[str, int] = {}
        self._free_slots: list[int] = []
        self._planes: _AggregatePlanes | None = None
        #: True while ``_planes`` may be shared with a :meth:`seed_from`
        #: parent or fork: the next write copies first.
        self._planes_shared = False
        self._computed = 0
        self._loaded = 0
        self._hits = 0

    # -- program registration ----------------------------------------------
    def register(self, ltps: Iterable[LTP]) -> None:
        """Add LTPs to the store (idempotent for already-known programs).

        Each new program is compiled once to its kernel profile.
        Re-registering a name with a *different* program is an error; use
        :meth:`discard` first (that is what incremental replacement does).
        """
        for ltp in ltps:
            known = self._ltps.get(ltp.name)
            if known is None:
                self._ltps[ltp.name] = ltp
                self._profiles[ltp.name] = compile_profile(
                    ltp, self.schema, self.settings
                )
                self._rows[ltp.name] = {}
                self._take_slot(ltp.name)
            elif known is not ltp and known != ltp:
                raise ProgramError(
                    f"edge-block store already holds a different program named "
                    f"{ltp.name!r}; discard it before re-registering"
                )

    def discard(self, names: Iterable[str]) -> None:
        """Drop programs and every cached block they participate in: the
        program's own row and its entry in every other row (``≤ 2n − 1``
        blocks each), never the whole cache."""
        for name in names:
            if name not in self._ltps:
                continue
            del self._ltps[name]
            del self._profiles[name]
            # Only the slot is freed: a reused slot's row and column are
            # rewritten by ensure_blocks (every pair of a newly registered
            # program is missing) before any detector reads them.
            self._free_slots.append(self._slots.pop(name))
            if self._arena is not None:
                self._arena.remove(name)
            del self._rows[name]
            for row in self._rows.values():
                row.pop(name, None)

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

    def _require(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self._ltps:
                raise ProgramError(f"edge-block store: unknown program {name!r}")

    # -- blocks -------------------------------------------------------------
    def _put(self, source: str, target: str, block: _Block, *, loaded: bool) -> None:
        """Install one block record.  A new pair counts under ``loaded`` or
        ``computed``; recomputing a present pair counts under ``computed``;
        loading or seeding over a present pair counts nothing."""
        row = self._rows[source]
        if target not in row:
            if loaded:
                self._loaded += 1
            else:
                self._computed += 1
        elif not loaded:
            self._computed += 1
        row[target] = block

    def _edges(self, source: str, target: str, block: _Block) -> tuple[SummaryEdge, ...]:
        """One block's edge tuples, materializing packed coordinates once.

        Coordinates are ``(source occurrence, target occurrence)`` indexes
        in program order, so emitting the non-counterflow edge before the
        counterflow edge per coordinate reproduces the reference loop's
        edge sequence exactly.
        """
        coords = block.coords
        if coords is None:
            return block.edges
        occurrences_i = self._profiles[source].occurrences
        occurrences_j = self._profiles[target].occurrences
        edges: list[SummaryEdge] = []
        append = edges.append
        edge = SummaryEdge
        for s, t, nc, cf in coords:
            source_stmt, source_pos = occurrences_i[s][0], occurrences_i[s][1]
            target_stmt, target_pos = occurrences_j[t][0], occurrences_j[t][1]
            if nc:
                append(edge(source, source_stmt, source_pos, False,
                            target_stmt, target_pos, target))
            if cf:
                append(edge(source, source_stmt, source_pos, True,
                            target_stmt, target_pos, target))
        block.edges = materialized = tuple(edges)
        block.coords = None
        return materialized

    def block(self, source: str, target: str) -> tuple[SummaryEdge, ...]:
        """The edge block of one ordered pair, from cache or computed now."""
        self._require((source, target))
        cached = self._rows[source].get(target)
        if cached is not None:
            self._hits += 1
            return self._edges(source, target, cached)
        self._sweep([(source, target)])
        return self._edges(source, target, self._rows[source][target])

    def load_block(
        self, source: str, target: str, edges: Iterable[SummaryEdge]
    ) -> None:
        """Seed one block from persisted edges (no recomputation)."""
        self._require((source, target))
        block = _Block(None, tuple(edges))
        self._put(source, target, block, loaded=True)
        self._write_cells([(source, target)], [self._aggregate(source, block)])

    def seed_from(self, other: "EdgeBlockStore") -> None:
        """Adopt another store's programs, compiled profiles and blocks.

        The in-process counterpart of :meth:`load_block`: programs carry
        their already-compiled kernel profiles over (no recompilation),
        and every block record is shared by reference — packed or not —
        and counted under ``loaded``.  A fresh store also shares the
        other's aggregate planes copy-on-write.  Both stores must describe
        the same schema and settings — this is what
        :meth:`repro.analysis.Analyzer.fork` builds a candidate-verifying
        session from without paying per-block install overhead.
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
        share_planes = not self._ltps
        self._ltps.update(other._ltps)
        self._profiles.update(other._profiles)
        for source, row in other._rows.items():
            self._rows.setdefault(source, {})
            for target, block in row.items():
                self._put(source, target, block, loaded=True)
        if share_planes:
            # A fresh store takes the other's slots and shares its planes
            # copy-on-write: forks copy nothing until they write.
            self._slots = dict(other._slots)
            self._free_slots = list(other._free_slots)
            self._planes = other._planes
            self._planes_shared = other._planes_shared = True
        else:
            for name in other._ltps:
                if name not in self._slots:
                    self._take_slot(name)
            pairs = [(s, t) for s, row in other._rows.items() for t in row]
            if pairs:
                self._write_cells(
                    pairs, [self._aggregate(s, other._rows[s][t]) for s, t in pairs]
                )

    def ensure_blocks(self, names: Sequence[str] | None = None) -> int:
        """Compute every missing block among ``names`` (all registered when
        ``None``) with the batch plane kernel.  Returns the number of
        blocks computed."""
        if names is None:
            names = self.ltp_names
        rows = self._rows
        missing = []
        for source in names:
            row = rows.get(source, {})
            missing.extend((source, target) for target in names if target not in row)
        if not missing:
            return 0
        self._require(names)
        self._sweep(missing)
        return len(missing)

    # -- batch kernel plumbing ---------------------------------------------
    def _required_words(self) -> int:
        """Mask-slot width the current intern table needs (attr and FK
        masks share the wider of the two requirements)."""
        interner = self.schema.interner
        return max(
            planes.words_for_bits(interner.attr_bit_count),
            planes.words_for_bits(interner.fk_bit_count),
        )

    def _arena_for(self, names: Iterable[str]) -> planes.PlaneArena:
        """The store's plane arena with ``names`` packed, (re)built wider
        when lazy interning has outgrown the mask slots.

        Already-packed programs keep their rows — an incremental
        ``replace_program`` repacks only the edited program's rows."""
        words = self._required_words()
        arena = self._arena
        if arena is None or arena.words < words:
            arena = self._arena = planes.PlaneArena(words)
        for name in names:
            if name not in arena:
                arena.add(self._profiles[name])
        return arena

    def _sweep(self, missing: Sequence[tuple[str, str]]) -> None:
        """Batch-compute the missing pairs: plan sweeps, run them, install
        packed block records and write their aggregates, one plane write
        per sweep."""
        check_deadline("block construction")
        involved = {name for pair in missing for name in pair}
        with span("pack"):
            arena = self._arena_for(involved)
        use_fk = self.settings.use_foreign_keys
        plans = planes.plan_sweeps(missing)
        swept = []
        with span("sweep"):
            for plan in plans:
                check_deadline("block construction")
                swept.append(planes.sweep(arena, plan.sources, plan.targets, use_fk))
        obs_log.debug("sweep.batch", pairs=len(missing), sweeps=len(plans))
        for plan, (blocks, columns) in zip(plans, swept):
            for pair, coords in blocks.items():
                self._put(*pair, _Block(coords), loaded=False)
            slots = self._slots
            self._writable_planes().write_grid(
                [slots[name] for name in plan.sources],
                [slots[name] for name in plan.targets],
                columns,
            )

    # -- aggregate planes ---------------------------------------------------
    def _take_slot(self, name: str) -> None:
        free = self._free_slots
        self._slots[name] = free.pop() if free else len(self._slots)

    def _aggregate(self, source: str, block: _Block) -> tuple:
        """One record's :func:`~repro.summary.planes.aggregate`, from its
        coordinates or (read after them, see :class:`_Block`) its edges."""
        coords = block.coords
        if coords is None:
            coords = [
                (e.source_pos, e.target_pos, not e.counterflow, e.counterflow)
                for e in block.edges
            ]
        return planes.aggregate(coords, self._profiles[source].triggers)

    def _writable_planes(self) -> _AggregatePlanes:
        """The planes, grown to every allocated slot and no longer shared
        with a fork."""
        needed = len(self._slots) + len(self._free_slots)
        current = self._planes
        if current is None or current.capacity < needed:
            capacity = max(needed, 2 * current.capacity if current else 8)
            self._planes = _AggregatePlanes(capacity, current)
        elif self._planes_shared:
            self._planes = _AggregatePlanes(current.capacity, current)
        self._planes_shared = False
        return self._planes

    def _write_cells(self, pairs, aggregates) -> None:
        """Write one batch of block aggregates, one per pair."""
        slots = self._slots
        self._writable_planes().write(
            [slots[source] for source, _ in pairs],
            [slots[target] for _, target in pairs],
            aggregates,
        )

    def aggregate_planes(self, names: Sequence[str]) -> tuple[np.ndarray, ...]:
        """``(nc, cf, trigger, max_target, min_cf_source)`` over ``names ×
        names`` in ``names`` order, computing missing blocks first (see
        :class:`_AggregatePlanes`)."""
        self.ensure_blocks(names)
        slots = [self._slots[name] for name in names]
        if self._planes is None:  # nothing written yet, so names is empty
            return _AggregatePlanes(0).gather(slots)
        return self._planes.gather(slots)

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
        materialize = self._edges
        edges: list[SummaryEdge] = []
        for source in names:
            row = self._rows[source]
            for target in names:
                edges.extend(materialize(source, target, row[target]))
        self._hits += len(names) * len(names) - freshly_computed
        return SummaryGraph._assembled(
            {name: self.ltp(name) for name in names}, tuple(edges)
        )

    # -- diagnostics --------------------------------------------------------
    def _block_count(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def cache_info(self) -> dict[str, int]:
        """Block-cache counters: size, computations, loads, and hits.

        ``blocks`` counts packed and materialized blocks alike — packing
        is a representation detail, not a cache state."""
        return {
            "programs": len(self._ltps),
            "blocks": self._block_count(),
            "computed": self._computed,
            "loaded": self._loaded,
            "hits": self._hits,
        }

    def plane_info(self) -> dict[str, int]:
        """Plane-arena diagnostics: slot width, live rows, rows ever packed.

        ``rows_packed`` is cumulative — an incremental replace advances it
        by the edited program's occurrence count only (untouched rows are
        reused in place), which is what the incremental regression tests
        assert."""
        arena = self._arena
        if arena is None:
            return {"words": 0, "programs": 0, "rows": 0, "rows_packed": 0}
        return {
            "words": arena.words,
            "programs": arena.programs,
            "rows": arena.capacity,
            "rows_packed": arena.rows_packed,
        }

    def blocks(self) -> dict[tuple[str, str], tuple[SummaryEdge, ...]]:
        """A snapshot of all cached blocks, materialized (for persistence)."""
        return {
            (source, target): self._edges(source, target, block)
            for source, row in self._rows.items()
            for target, block in row.items()
        }

    def clear(self) -> None:
        """Drop all programs, profiles, blocks, planes, and counters."""
        self._ltps.clear()
        self._profiles.clear()
        self._rows.clear()
        self._arena = None
        self._slots = {}
        self._free_slots = []
        self._planes = None
        self._planes_shared = False
        self._computed = 0
        self._loaded = 0
        self._hits = 0

    def __repr__(self) -> str:
        return (
            f"EdgeBlockStore(settings={self.settings.label!r}, "
            f"programs={len(self._ltps)}, blocks={self._block_count()})"
        )
