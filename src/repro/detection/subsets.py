"""Maximal robust subsets (the experiment grid of Figures 6 and 7).

Robustness is anti-monotone (Proposition 5.2): every subset of a robust set
of programs is robust.  The maximal robust sets are therefore fixed by the
minimal non-robust sets alone: the robust sets are the independent sets of
the hypergraph they form.  :func:`maximal_robust_sets` finds both families
with the dualize-and-advance search of Gunopulos et al. (PODS 1997): its
detector calls grow with the two families and the program count, not with
the 2^n subsets, and :data:`SEARCH_BUDGET` bounds them.
:func:`robust_grid` reads the per-subset verdict grid off its result for
at most :data:`MAX_GRID_PROGRAMS` programs.  The power-set enumeration
below it is the executable specification of both; the library never runs
it.

Detection methods are the names in :data:`METHODS`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.faults.deadline import check_deadline
from repro.summary.settings import AnalysisSettings

#: The two detection methods: Algorithm 2 and the type-I baseline.
METHODS = ("type-II", "type-I")
#: Detector calls plus open frontier sets past which a maximal-subset
#: search refuses.
SEARCH_BUDGET = 4096
#: Most programs whose 2^n − 1 subset verdict grid :func:`robust_grid` builds.
MAX_GRID_PROGRAMS = 16


def check_method(method: str) -> str:
    """``method`` itself when it names a detection method, else ValueError."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(METHODS)}"
        )
    return method


def maximal_robust_sets(
    names: Iterable[str],
    robust: Callable[[tuple[str, ...]], bool],
) -> tuple[frozenset[str], ...]:
    """The maximal robust subsets of ``names``, largest first.

    ``robust`` decides one combination (a sorted tuple of names) and must
    be anti-monotone.  Unless the full set is robust, the search keeps a
    *frontier*, the minimal transversals of the complements of the maximal
    sets found so far.  Each round asks about the first frontier set not
    yet known non-robust: a robust one is grown greedily into a new maximal
    set, whose complement advances the frontier (Berge's step); a
    non-robust one is a minimal non-robust set.  The search ends when no
    frontier set is left to ask.  No superset of a set answered non-robust
    is ever asked.  Past :data:`SEARCH_BUDGET` detector calls plus
    frontier sets it raises :class:`~repro.errors.ReproError`.
    """
    ordered = sorted(names)
    bits = [1 << i for i in range(len(ordered))]  # sets are bitmasks
    nonrobust: list[int] = []
    frontier, calls = [0], 0

    def members(mask: int) -> tuple[str, ...]:
        return tuple(name for bit, name in zip(bits, ordered) if mask & bit)

    def spend(work: int) -> None:
        if work > SEARCH_BUDGET:
            raise ReproError(
                f"maximal-subset search over {len(ordered)} programs exceeded "
                f"its budget of {SEARCH_BUDGET} detector calls plus open sets"
            )

    def ask(mask: int) -> bool:
        nonlocal calls
        if any(bad & mask == bad for bad in nonrobust):
            return False
        calls += 1
        spend(calls + len(frontier))
        if robust(members(mask)):
            return True
        nonrobust.append(mask)
        return False

    check_deadline("subset search")
    full = (1 << len(ordered)) - 1
    if ordered and ask(full):
        return (frozenset(ordered),)
    maximal: list[int] = []
    while True:
        check_deadline("subset search")
        # The empty seed is robust without asking; every other frontier
        # set answered non-robust stays in ``nonrobust`` and is skipped.
        seed = next((mask for mask in frontier if not mask or ask(mask)), None)
        if seed is None:
            break
        for bit in bits:
            if not seed & bit and ask(seed | bit):
                seed |= bit
        maximal.append(seed)
        edge = full & ~seed
        kept = [mask for mask in frontier if mask & edge]
        grown = [m | bit for m in frontier if not m & edge for bit in bits if edge & bit]
        spend(calls + len(kept) + len(grown))
        # Grown sets never contain one another, so only kept sets can
        # make one non-minimal.
        frontier = kept + [m for m in grown if not any(k & m == k for k in kept)]
    found = (frozenset(members(mask)) for mask in maximal if mask)
    return tuple(sorted(found, key=lambda s: (-len(s), sorted(s))))


def robust_grid(
    names: Iterable[str], maximal: Sequence[frozenset[str]]
) -> dict[frozenset[str], bool]:
    """The verdict of every non-empty subset of ``names``, read off the
    maximal robust sets: a set is robust iff one of them contains it.

    Keys run by decreasing size, then name order, as in the power-set
    enumeration.  Raises :class:`~repro.errors.ReproError` above
    :data:`MAX_GRID_PROGRAMS` programs.
    """
    ordered = sorted(names)
    if len(ordered) > MAX_GRID_PROGRAMS:
        raise ReproError(
            f"the subset verdict grid of {len(ordered)} programs has "
            f"{2 ** len(ordered) - 1} entries; the limit is {MAX_GRID_PROGRAMS} programs"
        )
    return {
        subset: any(subset <= other for other in maximal)
        for size in range(len(ordered), 0, -1)
        for subset in map(frozenset, itertools.combinations(ordered, size))
    }


def enumerate_robust_subsets(
    names: Iterable[str],
    check_combo: Callable[[tuple[str, ...]], bool],
) -> dict[frozenset[str], bool]:
    """The power-set enumeration: the specification of
    :func:`maximal_robust_sets` and :func:`robust_grid`.

    Walks subsets of ``names`` in decreasing size; subsets of attested-robust
    sets inherit robustness without calling ``check_combo`` (Proposition
    5.2).  ``check_combo`` decides robustness for one candidate
    combination.
    """
    ordered = sorted(names)
    verdicts: dict[frozenset[str], bool] = {}
    # Every inherited-robust set lies inside an attested one (one that
    # check_combo confirmed), so scanning the attested list suffices.
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
    """The maximal robust subsets of a verdict grid, largest first (the
    specification of :func:`maximal_robust_sets`).

    Bucketed by subset size: every robust strict superset lies inside a
    larger maximal one, so comparing each candidate only against the
    maximal sets of larger sizes found so far is exact.
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

    The serializable counterpart of
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
