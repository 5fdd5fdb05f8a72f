"""Section 7.2 — false-negative analysis.

Algorithm 2 is sound but incomplete, so subsets it rejects may still be
robust.  The paper reports that on SmallBank (where the complete
characterization of [46] applies) Algorithm 2 produces *no* false
negatives.  We verify the same claim constructively: for every SmallBank
subset rejected by Algorithm 2, the MVRC execution engine searches for a
non-serializable schedule allowed under MVRC — finding one proves the
subset genuinely non-robust.

On TPC-C the paper identifies {Delivery} as a known false negative: two
Delivery instances over the same warehouse can never interleave harmfully
(the second delete of the same oldest order would abort), but the BTP
abstraction cannot see that.  The experiment confirms Algorithm 2 rejects
{Delivery} and that the counterexample search (which inherits the same
abstraction) *does* produce an abstract counterexample — illustrating why
the false negative arises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.search import find_counterexample
from repro.experiments.reporting import render_table
from repro.service.core import AnalysisService
from repro.service.grid import GridSpec
from repro.summary.settings import ATTR_DEP_FK, AnalysisSettings
from repro.workloads import smallbank, tpcc


@dataclass(frozen=True)
class SubsetVerdict:
    subset: frozenset[str]
    detected_robust: bool
    counterexample_found: bool | None  # None when not searched

    @property
    def confirmed(self) -> bool:
        """Rejected subsets are confirmed when a counterexample exists."""
        if self.detected_robust:
            return True
        return bool(self.counterexample_found)


@dataclass(frozen=True)
class FalseNegativeResult:
    verdicts: tuple[SubsetVerdict, ...]
    delivery_rejected: bool

    @property
    def unconfirmed(self) -> tuple[SubsetVerdict, ...]:
        """Rejected subsets without a counterexample (possible false negatives)."""
        return tuple(v for v in self.verdicts if not v.confirmed)

    @property
    def false_negative_free(self) -> bool:
        return not self.unconfirmed

    def to_text(self) -> str:
        headers = ["subset", "Algorithm 2", "counterexample", "status"]
        body = []
        for verdict in sorted(self.verdicts, key=lambda v: (len(v.subset), sorted(v.subset))):
            body.append(
                [
                    "{" + ", ".join(sorted(verdict.subset)) + "}",
                    "robust" if verdict.detected_robust else "rejected",
                    {True: "found", False: "none", None: "-"}[verdict.counterexample_found],
                    "confirmed" if verdict.confirmed else "UNCONFIRMED",
                ]
            )
        lines = [
            "Section 7.2 — false-negative analysis on SmallBank",
            render_table(headers, body),
            "",
            f"SmallBank false-negative free: {self.false_negative_free} "
            "(paper: yes — Algorithm 2 finds all maximal robust subsets)",
            f"TPC-C {{Delivery}} rejected by Algorithm 2: {self.delivery_rejected} "
            "(paper: yes — a known false negative of the abstraction)",
        ]
        return "\n".join(lines)


def _search_with_escalation(
    programs, schema, universe_size: int, max_transactions: int
):
    """Exhaustive 2-transaction search, then random 3/4-transaction search.

    The escalation stages only make sense for *minimal* non-robust subsets
    (every proper subset robust), where a counterexample must instantiate
    all programs — ``require_all_programs`` prunes accordingly.
    """
    counterexample = find_counterexample(
        programs, schema, universe_size=universe_size, n_transactions=2
    )
    if counterexample is not None:
        return counterexample
    for n_transactions in range(3, max_transactions + 1):
        counterexample = find_counterexample(
            programs,
            schema,
            universe_size=universe_size,
            n_transactions=n_transactions,
            mode="random",
            random_trials=40_000,
            require_all_programs=True,
        )
        if counterexample is not None:
            return counterexample
    return None


def run_false_negatives(
    settings: AnalysisSettings = ATTR_DEP_FK,
    universe_size: int = 2,
    max_subset_size: int = 3,
    max_transactions: int = 4,
    *,
    service: AnalysisService | None = None,
) -> FalseNegativeResult:
    """Run the SmallBank completeness check and the TPC-C Delivery probe.

    Searching counterexamples is exponential in the subset size, so only
    *minimal* rejected subsets of at most ``max_subset_size`` programs are
    searched; every larger rejected subset contains a confirmed one, which
    already proves it non-robust via Proposition 5.2 (contrapositive).

    The Algorithm 2 verdict grid is one ``include_verdicts``
    :class:`~repro.service.GridSpec` cell, so a shared ``service`` (e.g.
    from ``repro experiments all``) answers it from warm block caches.
    """
    workload = smallbank()
    service = service or AnalysisService()
    verdicts = []
    cell = service.grid(
        GridSpec(
            workloads=(workload,),
            settings=(settings,),
            task="subsets",
            include_verdicts=True,
        )
    ).cells[0]
    grid = {
        frozenset(names): robust
        for names, robust in cell.value["robust_subsets"]
    }
    confirmed_non_robust: set[frozenset[str]] = set()
    for subset, robust in sorted(grid.items(), key=lambda item: len(item[0])):
        if robust:
            verdicts.append(SubsetVerdict(subset, True, None))
            continue
        if any(small <= subset for small in confirmed_non_robust):
            # A non-robust subset makes every superset non-robust
            # (Proposition 5.2, contrapositive) — no search needed.
            verdicts.append(SubsetVerdict(subset, False, True))
            continue
        if len(subset) > max_subset_size:
            verdicts.append(SubsetVerdict(subset, False, None))
            continue
        programs = [workload.program(name) for name in sorted(subset)]
        counterexample = _search_with_escalation(
            programs, workload.schema, universe_size, max_transactions
        )
        found = counterexample is not None
        if found:
            confirmed_non_robust.add(subset)
        verdicts.append(SubsetVerdict(subset, False, found))

    tpc = tpcc()
    delivery_rejected = not service.session(tpc).is_robust(
        settings, subset=["Delivery"], method="type-II"
    )
    return FalseNegativeResult(tuple(verdicts), delivery_rejected)
