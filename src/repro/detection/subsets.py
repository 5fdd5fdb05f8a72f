"""Robust-subset enumeration (the experiment grid of Figures 6 and 7).

Robustness is anti-monotone (Proposition 5.2): every subset of a robust set
of programs is robust.  The enumeration exploits this by walking subsets in
decreasing size and skipping subsets of already-attested robust sets; the
*maximal* robust subsets are those without a robust strict superset.

On top of the attested-superset pruning, :class:`PairMatrix` adds the
contrapositive fast path: both built-in detection methods decide robustness
by the *absence* of a bad cycle, so a violation found in ``SuG(𝒫')``
persists in every superset's graph (``SuG(𝒫')`` is an induced subgraph of
``SuG(𝒫'')`` for ``𝒫' ⊆ 𝒫''``).  Once a 1- or 2-program core is known
non-robust, every candidate containing it is non-robust.  Every other
candidate runs the matrix detector of :mod:`repro.detection.blockindex`
over the store's aggregate planes, whose first screen (no program with
both an incoming edge and an outgoing counterflow edge) answers many
candidates robust without a single product — no candidate assembles a
summary graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.btp.program import BTP
from repro.detection.blockindex import is_robust_blocks
from repro.detection.typei import is_robust_type1
from repro.detection.typeii import is_robust_type2
from repro.schema import Schema
from repro.summary.graph import SummaryGraph
from repro.summary.pairwise import EdgeBlockStore
from repro.summary.settings import AnalysisSettings

Method = Callable[[SummaryGraph], bool]

#: The two detection methods by name.
METHODS: dict[str, Method] = {
    "type-II": is_robust_type2,
    "type-I": is_robust_type1,
}


def _resolve_method(method: str | Method) -> Method:
    if callable(method):
        return method
    try:
        return METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(METHODS)}"
        ) from None


def _method_name(check: Method) -> str:
    """The name of a built-in detection method."""
    return next(name for name, method in METHODS.items() if method is check)


def _session(programs: Sequence[BTP], schema: Schema, max_loop_iterations: int):
    """A throwaway :class:`repro.analysis.Analyzer` over ``programs``."""
    from repro.analysis.session import Analyzer  # deferred: avoids an import cycle

    return Analyzer(programs, schema=schema, max_loop_iterations=max_loop_iterations)


def is_robust(
    programs: Sequence[BTP],
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
    method: str | Method = "type-II",
    max_loop_iterations: int = 2,
) -> bool:
    """Unfold, build the summary graph, and run the chosen detection method."""
    return _session(programs, schema, max_loop_iterations).is_robust(
        settings, method=method
    )


class PairMatrix:
    """Per-pair interference summary over an :class:`EdgeBlockStore`.

    ``members`` maps each program (BTP) name to the LTP names of its
    unfoldings; ``check`` is one of the two built-in detection methods.
    :meth:`verdict` decides one candidate combination with two fast
    paths before falling back to the matrix detector
    (:func:`~repro.detection.blockindex.is_robust_blocks`, whose planes
    screen many candidates robust before any product):

    1. **non-robust cores** — a candidate containing a known non-robust
       1-/2-program core is non-robust (contrapositive of Proposition 5.2;
       exact because both methods detect a bad cycle that persists in every
       supergraph);
    2. **2-subset memo** — 1- and 2-program verdicts are answered from the
       matrix directly once computed.

    The matrix *materializes* (computes all 1-/2-program verdicts) the
    first time a candidate fails a real check: from then on, the
    exponentially many supersets of non-robust pairs short-circuit.  On a
    workload whose full set is robust nothing is materialized — the
    attested-superset pruning already collapses that case.
    """

    def __init__(
        self,
        store: EdgeBlockStore,
        members: Mapping[str, Sequence[str]],
        check: Method,
    ):
        self._store = store
        self._members = {name: tuple(ltps) for name, ltps in members.items()}
        self._method = _method_name(check)
        self._universe = frozenset(self._members)
        self._pair_verdicts: dict[frozenset[str], bool] = {}
        self._nonrobust_cores: list[frozenset[str]] = []
        self._materialized = False

    @classmethod
    def for_method(
        cls,
        store: EdgeBlockStore,
        members: Mapping[str, Sequence[str]],
        check: Method,
    ) -> "PairMatrix | None":
        """A matrix when ``check`` is a known cycle-absence method, else
        ``None`` (arbitrary callables get no anti-monotonicity guarantee)."""
        if check is is_robust_type2 or check is is_robust_type1:
            return cls(store, members, check)
        return None

    # -- internals ----------------------------------------------------------
    def _ltp_names(self, subset: Iterable[str]) -> list[str]:
        return [ltp for name in sorted(subset) for ltp in self._members[name]]

    def _robust(self, subset: frozenset[str]) -> bool:
        return is_robust_blocks(self._store, self._ltp_names(subset), self._method)

    def pair_verdict(self, subset: frozenset[str]) -> bool:
        """The verdict of a 1- or 2-program subset, memoized."""
        cached = self._pair_verdicts.get(subset)
        if cached is not None:
            return cached
        robust = self._robust(subset)
        self._pair_verdicts[subset] = robust
        if not robust:
            self._nonrobust_cores.append(subset)
        return robust

    def materialize(self) -> None:
        """Compute every 1- and 2-program verdict (idempotent)."""
        if self._materialized:
            return
        self._materialized = True
        names = sorted(self._universe)
        for name in names:
            self.pair_verdict(frozenset((name,)))
        for left, right in itertools.combinations(names, 2):
            self.pair_verdict(frozenset((left, right)))

    def _contains_nonrobust_core(self, subset: frozenset[str]) -> bool:
        return any(core <= subset for core in self._nonrobust_cores)

    # -- the decision procedure ---------------------------------------------
    def verdict(self, combo: Iterable[str]) -> bool:
        """The robustness verdict of one candidate combination."""
        subset = frozenset(combo)
        if len(subset) <= 2:
            return self.pair_verdict(subset)
        if self._contains_nonrobust_core(subset):
            return False
        robust = self._robust(subset)
        if not robust and not self._materialized:
            # The grid has entered non-robust territory: pay the cheap
            # pair sweep once so the remaining supersets short-circuit.
            self.materialize()
        return robust


def enumerate_robust_subsets(
    names: Iterable[str],
    check_combo: Callable[[tuple[str, ...]], bool],
) -> dict[frozenset[str], bool]:
    """The anti-monotone enumeration behind
    :meth:`repro.analysis.Analyzer.robust_subsets`.

    Walks subsets of ``names`` in decreasing size; subsets of attested-robust
    sets inherit robustness without calling ``check_combo`` (Proposition
    5.2).  ``check_combo`` decides robustness for one candidate combination
    — via :meth:`PairMatrix.verdict` (the built-in methods) or by running
    the method on an assembled graph (arbitrary method callables).
    """
    ordered = sorted(names)
    verdicts: dict[frozenset[str], bool] = {}
    # Only *attested* robust sets (those check_combo confirmed) can make a
    # candidate inherit robustness: every inherited-robust set is itself a
    # subset of an attested one, so scanning the short attested list is
    # equivalent to scanning the whole verdicts dict — without the quadratic
    # blow-up in the number of subsets.
    attested: list[frozenset[str]] = []
    for size in range(len(ordered), 0, -1):
        for combo in itertools.combinations(ordered, size):
            subset = frozenset(combo)
            if any(subset < other for other in attested):
                verdicts[subset] = True
                continue
            robust = check_combo(combo)
            verdicts[subset] = robust
            if robust:
                attested.append(subset)
    return verdicts


def maximal_subsets(
    verdicts: dict[frozenset[str], bool]
) -> tuple[frozenset[str], ...]:
    """The maximal robust subsets of a verdict grid, largest first.

    Bucketed by subset size: a strict superset is necessarily larger, and
    every robust strict superset is contained in some *maximal* robust set
    of larger size (chains of robust supersets end at a maximal one), so
    scanning sizes in decreasing order and comparing each candidate only
    against the maximal sets found so far is exact — and near-linear where
    the old all-pairs scan over the robust list was quadratic.
    """
    by_size: dict[int, list[frozenset[str]]] = {}
    for subset, robust in verdicts.items():
        if robust:
            by_size.setdefault(len(subset), []).append(subset)
    maximal: list[frozenset[str]] = []
    for size in sorted(by_size, reverse=True):
        for subset in by_size[size]:
            if not any(subset < other for other in maximal):
                maximal.append(subset)
    return tuple(sorted(maximal, key=lambda s: (-len(s), sorted(s))))


def robust_subsets(
    programs: Sequence[BTP],
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
    method: str | Method = "type-II",
    max_loop_iterations: int = 2,
) -> dict[frozenset[str], bool]:
    """Robustness verdict for every non-empty subset of the programs.

    Subsets are keyed by the frozenset of program (BTP) names.  A
    one-shot wrapper over :meth:`repro.analysis.Analyzer.robust_subsets`:
    unfolding happens once, each candidate's ``SuG`` is assembled from
    cached pairwise edge blocks, and for the built-in methods the
    :class:`PairMatrix` answers most candidates without assembling a graph.
    """
    return _session(programs, schema, max_loop_iterations).robust_subsets(
        settings, method
    )


def maximal_robust_subsets(
    programs: Sequence[BTP],
    schema: Schema,
    settings: AnalysisSettings = AnalysisSettings(),
    method: str | Method = "type-II",
    max_loop_iterations: int = 2,
) -> tuple[frozenset[str], ...]:
    """The maximal robust subsets, largest first (as listed in Figures 6/7)."""
    return maximal_subsets(
        robust_subsets(programs, schema, settings, method, max_loop_iterations)
    )


def format_subsets(subsets: Iterable[frozenset[str]], abbreviations: dict[str, str] | None = None) -> str:
    """Render subsets the way the paper does, e.g. ``{Am, DC, TS}, {Bal, DC}``."""
    rendered = []
    for subset in subsets:
        names = sorted(abbreviations.get(name, name) if abbreviations else name for name in subset)
        rendered.append("{" + ", ".join(names) + "}")
    return ", ".join(rendered)


@dataclass(frozen=True)
class SubsetsReport:
    """The result of a maximal-robust-subsets query, as one report object.

    The serializable counterpart of :func:`maximal_robust_subsets` /
    :meth:`repro.analysis.Analyzer.maximal_robust_subsets`: the CLI's
    ``repro subsets --json`` payload is exactly :meth:`to_dict`, and the
    service's ``/v1/subsets`` endpoint returns the same shape (which is what
    makes the two byte-identical).  ``abbreviations`` carry the Figure 6/7
    short labels for :meth:`describe`; they are presentation-only and not
    serialized.
    """

    workload: str
    settings: AnalysisSettings
    method: str
    maximal: tuple[frozenset[str], ...]
    abbreviations: Mapping[str, str] = field(default_factory=dict, compare=False)

    def describe(self) -> str:
        """The CLI's two-line text rendering."""
        subsets = format_subsets(self.maximal, dict(self.abbreviations))
        return (
            f"workload: {self.workload}   setting: {self.settings.label}   "
            f"method: {self.method}\n"
            f"maximal robust subsets: {subsets or '(none)'}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "settings": self.settings.label,
            "method": self.method,
            "maximal_robust_subsets": [sorted(subset) for subset in self.maximal],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubsetsReport":
        return cls(
            workload=data["workload"],
            settings=AnalysisSettings.from_label(data["settings"]),
            method=data["method"],
            maximal=tuple(
                frozenset(names) for names in data["maximal_robust_subsets"]
            ),
        )

    def __str__(self) -> str:
        return self.describe()
