"""Algorithm 1: constructing the summary graph ``SuG(𝒫)``.

For every ordered pair of programs and every pair of their statements over a
common relation, the condition tables of Table 1 (plus ``ncDepConds`` /
``cDepConds`` for ⊥ entries) decide whether a non-counterflow and/or a
counterflow edge is added.  Statements are compared at the granularity
chosen in the :class:`~repro.summary.settings.AnalysisSettings` — the
tuple-granularity settings widen every defined attribute set to the full
attribute set of the relation first.

The construction itself lives in :mod:`repro.summary.pairwise`: edges are
computed per ordered pair of programs (:func:`~repro.summary.pairwise.pair_edges`)
and concatenated, which is what lets the
:class:`~repro.summary.pairwise.EdgeBlockStore` cache and incrementally
recompute blocks.  Since the plane-packed batch kernel
(:mod:`repro.summary.planes`), the store computes whole pair batches per
sweep rather than looping pair by pair.  :func:`construct_summary_graph`
is the classic monolithic entry point, kept as a thin wrapper with
edge-for-edge identical output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.btp.program import BTP
from repro.btp.ltp import LTP
from repro.btp.unfold import unfold
from repro.errors import ProgramError
from repro.schema import Schema
from repro.summary.graph import SummaryGraph
from repro.summary.pairwise import EdgeBlockStore
from repro.summary.settings import AnalysisSettings


def construct_summary_graph(
    programs: Sequence[LTP],
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
) -> SummaryGraph:
    """``constructSuG(𝒫)`` of Algorithm 1 over already-unfolded LTPs."""
    names = [program.name for program in programs]
    if len(set(names)) != len(names):
        raise ProgramError(f"duplicate LTP names: {names!r}")
    store = EdgeBlockStore(schema, settings)
    store.register(programs)
    return store.graph(names)


def build_summary_graph(
    programs: Iterable[BTP],
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
) -> SummaryGraph:
    """Unfold a set of BTPs (``Unfold≤2``) and run Algorithm 1: the
    specification the :class:`repro.analysis.Analyzer` session's graphs
    are tested against."""
    return construct_summary_graph(unfold(programs), schema, settings)
