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
the :class:`~repro.summary.graph.SummaryEdge` tuples, the block's
non-counterflow/counterflow flags, and its :class:`BlockSummary` once the
block-index detectors ask for it.  Forks share the records by reference.

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

import weakref
from typing import Iterable, NamedTuple, Sequence

from repro.btp.ltp import LTP
from repro.btp.statement import READ_TRIGGER_TYPES, Statement
from repro.errors import ProgramError
from repro.faults.deadline import check_deadline
from repro.obs import log as obs_log
from repro.obs.spans import span
from repro.schema import Schema
from repro.store.blockstore import BlockKey, BlockStore
from repro.summary import planes
from repro.summary.conditions import c_dep_conds, nc_dep_conds, protecting_fks
from repro.summary.fingerprint import program_fingerprint, schema_fingerprint
from repro.summary.graph import SummaryEdge, SummaryGraph
from repro.summary.settings import AnalysisSettings, Granularity
from repro.summary.tables import C_DEP_TABLE, NC_DEP_TABLE, TYPE_INDEX


def _release_store_refs(store: BlockStore, refs: dict) -> None:
    """Finalizer body: release every store reference a dead session held."""
    for key in refs.values():
        store.release(key)
    refs.clear()


class BlockSummary(NamedTuple):
    """Per-block aggregates for the block-index detection path.

    One representative edge per role Algorithm 2's dangerous-pair scan
    needs, so the scan becomes O(1) per *block pair* instead of per edge
    pair (see :mod:`repro.detection.blockindex`):

    * ``nc_rep`` / ``cf_rep`` — first non-counterflow / counterflow edge;
    * ``trigger_rep`` — first edge whose source statement is an R- or
      PR-operation (the Theorem 6.4 trigger set), eligible as the ``e2``
      of a dangerous pair regardless of positions;
    * ``max_target_pos_rep`` — the edge entering at the latest occurrence
      position (the best possible ``e2`` for the ``q'4 <_P q4`` order
      test);
    * ``min_cf_source_pos_rep`` — the counterflow edge leaving from the
      earliest position (the best possible ``e3``).
    """

    nc_rep: "SummaryEdge | None"
    cf_rep: "SummaryEdge | None"
    trigger_rep: "SummaryEdge | None"
    max_target_pos_rep: "SummaryEdge | None"
    min_cf_source_pos_rep: "SummaryEdge | None"


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
    preserves program order."""

    name: str
    occurrences: tuple[OccurrenceRow, ...]


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
    return ProgramProfile(program.name, tuple(rows))


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
    ``edges`` (loaded blocks start out materialized); ``has_nc`` /
    ``has_cf`` are set at install; ``summary`` is the
    :class:`BlockSummary`, memoized on the first
    :meth:`EdgeBlockStore.block_summary` call.

    Records are shared by reference between a store and its
    :meth:`~EdgeBlockStore.seed_from` forks, which may run on different
    threads.  The lazily filled fields stay safe for concurrent readers
    because every reader loads ``coords`` before ``edges`` and every
    writer stores ``edges`` before clearing ``coords`` — a reader that
    sees ``coords is None`` always finds ``edges`` set — and because two
    racing fills compute equal values, so the last write wins harmlessly.
    """

    __slots__ = ("coords", "edges", "has_nc", "has_cf", "summary")

    def __init__(
        self,
        coords: Coords | None,
        edges: tuple[SummaryEdge, ...] | None,
        has_nc: bool,
        has_cf: bool,
    ):
        self.coords = coords
        self.edges = edges
        self.has_nc = has_nc
        self.has_cf = has_cf
        self.summary: BlockSummary | None = None

    @classmethod
    def packed(cls, coords: Coords) -> "_Block":
        has_nc = has_cf = False
        for _, _, nc, cf in coords:
            has_nc |= nc
            has_cf |= cf
        return cls(coords, None, has_nc, has_cf)

    @classmethod
    def materialized(cls, edges: tuple[SummaryEdge, ...]) -> "_Block":
        return cls(
            None,
            edges,
            any(not edge.counterflow for edge in edges),
            any(edge.counterflow for edge in edges),
        )


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
        block_store: BlockStore | None = None,
    ):
        self.schema = schema
        self.settings = settings
        self._arena: planes.PlaneArena | None = None
        self._ltps: dict[str, LTP] = {}
        self._profiles: dict[str, ProgramProfile] = {}
        #: One row per registered LTP: target name → cached block record.
        self._rows: dict[str, dict[str, _Block]] = {}
        self._computed = 0
        self._loaded = 0
        self._hits = 0
        #: The cross-session content-addressed cache this store reads
        #: through and publishes into (``None`` → no sharing; see
        #: :mod:`repro.store.blockstore`).  Adopted blocks still count
        #: under ``computed`` in :meth:`cache_info` — the counter means
        #: "blocks made present by this store", so churn traces and every
        #: counter-shaped contract stay bit-identical with or without a
        #: block store attached; sharing is observable via
        #: :meth:`store_info` only.
        self.block_store = block_store
        #: Store reference per cached pair (released on discard/clear/GC).
        self._store_refs: dict[tuple[str, str], BlockKey] = {}
        #: Per-program content fingerprints (key components), memoized —
        #: dropped on :meth:`discard` so a replacement re-hashes.
        self._ltp_fps: dict[str, str] = {}
        self._schema_fp: str | None = None
        self._shared_hits = 0
        self._published = 0
        self._store_finalizer = None
        if block_store is not None:
            self._store_finalizer = weakref.finalize(
                self, _release_store_refs, block_store, self._store_refs
            )

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
            self._ltp_fps.pop(name, None)
            if self._arena is not None:
                self._arena.remove(name)
            for target in self._rows.pop(name):
                self._release_ref((name, target))
            for source, row in self._rows.items():
                if row.pop(name, None) is not None:
                    self._release_ref((source, name))

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
        self._ensure_pairs([(source, target)])
        return self._edges(source, target, self._rows[source][target])

    def subset_index(
        self, names: Sequence[str]
    ) -> tuple[
        dict[str, tuple[str, ...]],
        list[tuple[str, str]],
        list[tuple[str, str]],
    ]:
        """``(adjacency, nc_blocks, cf_blocks)`` over cached blocks.

        One pass over the subset's ordered pairs reading the flags each
        record carries from install.  Requires every pair's block to be
        cached (``ensure_blocks`` first).
        """
        rows = self._rows
        nc_blocks: list[tuple[str, str]] = []
        cf_blocks: list[tuple[str, str]] = []
        adjacency: dict[str, tuple[str, ...]] = {}
        for source in names:
            row = rows[source]
            successors: list[str] = []
            for target in names:
                block = row[target]
                if block.has_nc:
                    nc_blocks.append((source, target))
                if block.has_cf:
                    cf_blocks.append((source, target))
                if block.has_nc or block.has_cf:
                    successors.append(target)
            adjacency[source] = tuple(successors)
        return adjacency, nc_blocks, cf_blocks

    def block_summary(self, source: str, target: str) -> BlockSummary:
        """The :class:`BlockSummary` aggregates of one cached block.

        Requires the block to be cached (``ensure_blocks`` first); the
        scan happens once per block record and is memoized on it (so a
        forked session, which shares its parent's records, never
        re-aggregates baseline blocks).  The trigger test resolves each
        edge's source statement through the registered LTP — statement
        *types* are unaffected by tuple-granularity widening, so the
        aggregate is exact for every settings row.
        """
        block = self._rows[source][target]
        summary = block.summary
        if summary is not None:
            return summary
        nc_rep = cf_rep = trigger_rep = None
        max_target_pos_rep = min_cf_source_pos_rep = None
        source_ltp = self._ltps[source]
        for edge in self._edges(source, target, block):
            if edge.counterflow:
                if cf_rep is None:
                    cf_rep = edge
                if (
                    min_cf_source_pos_rep is None
                    or edge.source_pos < min_cf_source_pos_rep.source_pos
                ):
                    min_cf_source_pos_rep = edge
            elif nc_rep is None:
                nc_rep = edge
            if trigger_rep is None and (
                source_ltp.statement_at(edge.source_pos).stype in READ_TRIGGER_TYPES
            ):
                trigger_rep = edge
            if (
                max_target_pos_rep is None
                or edge.target_pos > max_target_pos_rep.target_pos
            ):
                max_target_pos_rep = edge
        block.summary = summary = BlockSummary(
            nc_rep, cf_rep, trigger_rep, max_target_pos_rep, min_cf_source_pos_rep
        )
        return summary

    def load_block(
        self, source: str, target: str, edges: Iterable[SummaryEdge]
    ) -> None:
        """Seed one block from persisted edges (no recomputation)."""
        self._require((source, target))
        self._put(source, target, _Block.materialized(tuple(edges)), loaded=True)

    def seed_from(self, other: "EdgeBlockStore") -> None:
        """Adopt another store's programs, compiled profiles and blocks.

        The in-process counterpart of :meth:`load_block`: programs carry
        their already-compiled kernel profiles over (no recompilation),
        and every block record is shared by reference — packed or not,
        summarized or not — and counted under ``loaded``.  Both stores
        must describe the same schema and settings — this is what
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
        self._ltps.update(other._ltps)
        self._profiles.update(other._profiles)
        for source, row in other._rows.items():
            self._rows.setdefault(source, {})
            for target, block in row.items():
                self._put(source, target, block, loaded=True)
        self._ltp_fps.update(other._ltp_fps)
        if self.block_store is not None and self.block_store is other.block_store:
            # Forks pin the same cross-session entries as their parent, so
            # a shared block stays pinned as long as *any* lineage uses it.
            for pair, key in other._store_refs.items():
                if pair not in self._store_refs and self.block_store.retain(key):
                    self._store_refs[pair] = key

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
        return self._ensure_pairs(missing)

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

    # -- cross-session block store ------------------------------------------
    def _store_key(self, pair: tuple[str, str]) -> BlockKey:
        """The content address of one pair's block: ``(schema fp, settings
        label, program fp i, program fp j)``.  The unfold depth ``k``
        needs no component — program fingerprints hash post-unfold LTP
        content (see :mod:`repro.store.blockstore`)."""
        if self._schema_fp is None:
            self._schema_fp = schema_fingerprint(self.schema)
        fps = self._ltp_fps
        parts: list[str] = []
        for name in pair:
            fp = fps.get(name)
            if fp is None:
                fp = fps[name] = program_fingerprint([self._ltps[name]])
            parts.append(fp)
        return (self._schema_fp, self.settings.label, parts[0], parts[1])

    def _adopt_ref(self, pair: tuple[str, str], key: BlockKey) -> None:
        """Record one already-taken store reference for ``pair``."""
        old = self._store_refs.get(pair)
        if old is not None and old != key:
            self.block_store.release(old)
        self._store_refs[pair] = key

    def _release_ref(self, pair: tuple[str, str]) -> None:
        key = self._store_refs.pop(pair, None)
        if key is not None and self.block_store is not None:
            self.block_store.release(key)

    def store_info(self) -> dict[str, object]:
        """Cross-session sharing counters (kept out of :meth:`cache_info`,
        whose exact shape is a compatibility contract): whether a block
        store is attached, how many of this store's blocks were adopted
        from it instead of computed, how many were published into it, and
        how many entries this store currently pins."""
        return {
            "attached": self.block_store is not None,
            "shared_hits": self._shared_hits,
            "published": self._published,
            "refs": len(self._store_refs),
        }

    def _ensure_pairs(self, missing: Sequence[tuple[str, str]]) -> int:
        """Batch-compute the given pairs: plan sweeps, run them, install
        packed block records.

        With a :class:`~repro.store.BlockStore` attached, each missing
        pair is first looked up by content address — a hit adopts the
        stored coordinates (bit-identical to recomputation by the
        exactness contract) and skips the kernel; the pairs actually
        computed are published back.  Returns the number of blocks made
        present either way, so callers' hit accounting is unchanged."""
        check_deadline("block construction")
        requested = len(missing)
        store = self.block_store
        if store is not None:
            unshared: list[tuple[str, str]] = []
            for pair in missing:
                key = self._store_key(pair)
                coords = store.get(key)
                if coords is None:
                    unshared.append(pair)
                else:
                    self._put(*pair, _Block.packed(coords), loaded=False)
                    self._adopt_ref(pair, key)
                    self._shared_hits += 1
            missing = unshared
            if not missing:
                return requested
        involved = {name for pair in missing for name in pair}
        with span("pack"):
            arena = self._arena_for(involved)
        use_fk = self.settings.use_foreign_keys
        plans = planes.plan_sweeps(missing)
        grouped_list = []
        with span("sweep"):
            for plan in plans:
                check_deadline("block construction")
                grouped_list.append(
                    planes.sweep_blocks(arena, plan.sources, plan.targets, use_fk)
                )
        obs_log.debug("sweep.batch", pairs=len(missing), sweeps=len(plans))
        for grouped in grouped_list:
            for pair, coords in grouped.items():
                if store is not None:
                    key = self._store_key(pair)
                    # publish() returns the canonical tuple, so concurrent
                    # sessions converge on one shared object.
                    coords = store.publish(key, coords)
                    self._adopt_ref(pair, key)
                    self._published += 1
                self._put(*pair, _Block.packed(coords), loaded=False)
        return requested

    # -- assembly -----------------------------------------------------------
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
        """Drop all programs, profiles, blocks, planes, and counters
        (releasing every cross-session store reference)."""
        self._ltps.clear()
        self._profiles.clear()
        self._rows.clear()
        if self.block_store is not None:
            _release_store_refs(self.block_store, self._store_refs)
        self._store_refs.clear()
        self._ltp_fps.clear()
        self._arena = None
        self._computed = 0
        self._loaded = 0
        self._hits = 0
        self._shared_hits = 0
        self._published = 0

    def __repr__(self) -> str:
        return (
            f"EdgeBlockStore(settings={self.settings.label!r}, "
            f"programs={len(self._ltps)}, blocks={self._block_count()})"
        )
