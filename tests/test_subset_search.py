"""The maximal-subset search (``repro.detection.subsets.maximal_robust_sets``).

* On synthetic anti-monotone oracles (a random family of "bad" sets; a set
  is robust iff it contains none) the search returns exactly the maximal
  sets of the power-set enumeration, its grid view equals that
  enumeration, and the oracle is never asked about a superset of a set it
  already answered non-robust.
* The search and the grid view fail closed: past ``SEARCH_BUDGET`` or
  ``MAX_GRID_PROGRAMS`` they raise ``ReproError`` (exit 2 in the CLI),
  and the search checks the request deadline.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.analysis import Analyzer
from repro.cli import main
from repro.detection.subsets import (
    MAX_GRID_PROGRAMS,
    SEARCH_BUDGET,
    enumerate_robust_subsets,
    maximal_robust_sets,
    maximal_subsets,
    robust_grid,
)
from repro.errors import DeadlineExceeded, ReproError
from repro.faults.deadline import deadline_scope
from repro.summary.settings import ATTR_DEP_FK, TPL_DEP_FK

NAMES = "abcdefgh"


class _Oracle:
    """Anti-monotone verdicts from a family of bad sets, recording every
    question and checking that none contains an earlier non-robust answer."""

    def __init__(self, bad):
        self.bad = [frozenset(b) for b in bad]
        self.answered_nonrobust: list[frozenset[str]] = []
        self.asked: list[frozenset[str]] = []

    def __call__(self, combo: tuple[str, ...]) -> bool:
        assert list(combo) == sorted(combo)
        subset = frozenset(combo)
        assert not any(core <= subset for core in self.answered_nonrobust), subset
        self.asked.append(subset)
        robust = not any(b <= subset for b in self.bad)
        if not robust:
            self.answered_nonrobust.append(subset)
        return robust


def _check(names, bad):
    spec = enumerate_robust_subsets(names, _Oracle(bad))
    oracle = _Oracle(bad)
    found = maximal_robust_sets(names, oracle)
    assert found == maximal_subsets(spec)
    assert robust_grid(names, found) == spec
    assert list(robust_grid(names, found)) == list(spec)
    assert len(set(oracle.asked)) == len(oracle.asked)
    return found


@st.composite
def _families(draw):
    names = NAMES[: draw(st.integers(min_value=1, max_value=len(NAMES)))]
    bad = draw(
        st.lists(
            st.sets(st.sampled_from(names), min_size=1, max_size=len(names)),
            max_size=6,
        )
    )
    return names, bad


class TestSyntheticOracles:
    @hyp_settings(max_examples=200, deadline=None)
    @given(_families())
    def test_search_equals_power_set_enumeration(self, family):
        _check(*family)

    @pytest.mark.parametrize("size", range(1, len(NAMES) + 1))
    def test_no_bad_set(self, size):
        names = NAMES[:size]
        oracle = _Oracle([])
        assert _check(names, []) == (frozenset(names),)
        assert maximal_robust_sets(names, oracle) == (frozenset(names),)
        assert oracle.asked == [frozenset(names)]

    @pytest.mark.parametrize("size", range(1, len(NAMES) + 1))
    def test_every_singleton_bad(self, size):
        names = NAMES[:size]
        assert _check(names, [{name} for name in names]) == ()

    @pytest.mark.parametrize("pairs", range(1, 5))
    def test_disjoint_bad_pairs(self, pairs):
        names = NAMES[: 2 * pairs]
        bad = [set(names[2 * i : 2 * i + 2]) for i in range(pairs)]
        found = _check(names, bad)
        assert len(found) == 2**pairs
        assert all(len(subset) == pairs for subset in found)

    def test_empty_names(self):
        assert maximal_robust_sets([], _Oracle([])) == ()
        assert robust_grid([], ()) == {}


class TestBudget:
    def test_disjoint_pairs_past_the_budget_refuse(self):
        """2^24 maximal sets: the search refuses and names its limit."""
        names = [f"{side}{i:02d}" for side in "FP" for i in range(24)]

        def robust(combo):
            chosen = set(combo)
            return not any(f"F{i:02d}" in chosen and f"P{i:02d}" in chosen for i in range(24))

        started = time.monotonic()
        with pytest.raises(ReproError, match=f"budget of {SEARCH_BUDGET} detector calls"):
            maximal_robust_sets(names, robust)
        assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize("setting", [TPL_DEP_FK, ATTR_DEP_FK], ids=lambda s: s.label)
    def test_auction5_type1_has_its_32_sets(self, setting):
        maximal = Analyzer("auction(5)").maximal_robust_subsets(setting, "type-I")
        assert len(maximal) == 32
        assert all(len(subset) == 5 for subset in maximal)

    def test_cli_refuses_auction24_type1(self, capsys):
        code = main(
            ["subsets", "auction(24)", "--method", "type-I", "--setting", "attr dep + FK"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"budget of {SEARCH_BUDGET} detector calls" in err

    def test_grid_view_refuses_above_the_program_cap(self):
        session = Analyzer("auction(9)")
        assert len(session.program_names) == 2 * 9 > MAX_GRID_PROGRAMS
        with pytest.raises(ReproError, match=f"limit is {MAX_GRID_PROGRAMS} programs"):
            session.robust_subsets()
        assert len(session.maximal_robust_subsets()) == 1

    def test_grid_view_at_the_program_cap(self):
        names = [f"p{i:02d}" for i in range(MAX_GRID_PROGRAMS)]
        grid = robust_grid(names, (frozenset(names[:3]),))
        assert len(grid) == 2**MAX_GRID_PROGRAMS - 1
        assert sum(grid.values()) == 7


class TestDeadline:
    def test_warm_search_checks_the_deadline(self):
        session = Analyzer("smallbank")
        expected = session.maximal_robust_subsets(ATTR_DEP_FK)  # warms the blocks
        with deadline_scope(1e-6):
            time.sleep(0.001)
            with pytest.raises(DeadlineExceeded, match="subset search"):
                session.maximal_robust_subsets(ATTR_DEP_FK)
        assert session.maximal_robust_subsets(ATTR_DEP_FK) == expected

    def test_deadline_checked_between_rounds(self):
        calls = []

        def slow_nonrobust(combo):
            calls.append(combo)
            time.sleep(0.06)
            return False

        with deadline_scope(0.05):
            with pytest.raises(DeadlineExceeded, match="subset search"):
                maximal_robust_sets("abc", slow_nonrobust)
        assert calls == [("a", "b", "c")]
