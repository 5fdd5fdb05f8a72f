"""Typed, serializable, seeded fault plans.

A :class:`FaultPlan` names *which* failure modes to inject and *when*:
each :class:`FaultRule` targets one injection :data:`site <SITES>` and
fires on a deterministic schedule — every N-th consult, a seeded random
rate, or both — optionally capped at a total number of firings.

Determinism follows the :class:`~repro.churn.MutationEngine` contract:
the *n*-th consult of a site draws from ``random.Random(f"{seed}:{site}:{n}")``
(string seeding is platform-stable), so a ``(plan, consult sequence)``
pair replays byte-identically on any host — which is what lets the CI
chaos smoke assert exact verdicts under injected failures.

Plans serialize via :meth:`to_dict`/:meth:`from_dict` (and JSON
convenience wrappers); :meth:`FaultPlan.from_source` additionally accepts
a path to a JSON file, the shape ``repro serve --fault-plan`` and the
``REPRO_FAULTS`` environment variable take.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import FaultError

#: The injection sites the library consults.
#:
#: * ``spill.corrupt`` — an eviction-time spill artifact is truncated
#:   after being written (a later rehydrate finds it corrupt);
#: * ``disk.full`` — ``save_cache`` fails with ``ENOSPC`` during spill;
#: * ``handler.stall`` — the service handler sleeps ``delay_seconds``
#:   before dispatch (exercises deadlines and load shedding);
#: * ``handler.crash`` — the service raises an *unexpected* exception
#:   (exercises the HTTP catch-alls and the poisoned-session breaker).
SITES = (
    "spill.corrupt",
    "disk.full",
    "handler.stall",
    "handler.crash",
)


@dataclass(frozen=True)
class FaultRule:
    """One site's firing schedule.

    ``every=N`` fires on every N-th consult of the site (1-based, so
    ``every=1`` fires always); ``rate=p`` fires each consult with seeded
    probability ``p``; both combine with OR.  ``times`` caps total
    firings (0 = unlimited); ``delay_seconds`` is the stall length for
    ``handler.stall`` (ignored elsewhere).
    """

    site: str
    rate: float = 0.0
    every: int = 0
    times: int = 0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"fault rate must be within 0..1, got {self.rate}")
        if self.every < 0:
            raise FaultError(f"fault 'every' must be >= 0, got {self.every}")
        if self.times < 0:
            raise FaultError(f"fault 'times' must be >= 0, got {self.times}")
        if self.delay_seconds < 0:
            raise FaultError(
                f"fault delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if not self.rate and not self.every:
            raise FaultError(
                f"fault rule for {self.site!r} would never fire: "
                "set 'rate' and/or 'every'"
            )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"site": self.site}
        if self.rate:
            data["rate"] = self.rate
        if self.every:
            data["every"] = self.every
        if self.times:
            data["times"] = self.times
        if self.delay_seconds:
            data["delay_seconds"] = self.delay_seconds
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(data, Mapping):
            raise FaultError(
                f"fault rule must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"site", "rate", "every", "times", "delay_seconds"}
        if unknown:
            raise FaultError(f"fault rule: unknown field(s) {sorted(unknown)!r}")
        site = data.get("site")
        if not isinstance(site, str):
            raise FaultError("fault rule: missing required string field 'site'")
        try:
            return cls(
                site=site,
                rate=float(data.get("rate", 0.0)),
                every=int(data.get("every", 0)),
                times=int(data.get("times", 0)),
                delay_seconds=float(data.get("delay_seconds", 0.0)),
            )
        except (TypeError, ValueError) as error:
            raise FaultError(f"fault rule for {site!r}: {error}") from None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules — the unit tests and CI chaos install."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def decide(self, site: str, consult: int) -> FaultRule | None:
        """The rule that fires on the ``consult``-th (1-based) consult of
        ``site``, or ``None``.  Pure: the same ``(seed, site, consult)``
        always decides identically, whatever order sites are consulted in.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.every and consult % rule.every == 0:
                return rule
            if rule.rate and random.Random(
                f"{self.seed}:{site}:{consult}"
            ).random() < rule.rate:
                return rule
        return None

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise FaultError(f"fault plan: unknown field(s) {sorted(unknown)!r}")
        rules = data.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise FaultError("fault plan: 'rules' must be a list")
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError) as error:
            raise FaultError(f"fault plan: bad seed: {error}") from None
        return cls(seed=seed, rules=tuple(FaultRule.from_dict(r) for r in rules))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultError(f"fault plan is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_source(cls, source: str) -> "FaultPlan":
        """A plan from inline JSON text or a path to a JSON file — the
        shapes ``--fault-plan`` and ``REPRO_FAULTS`` accept."""
        text = source.strip()
        if not text.lstrip().startswith("{"):
            path = Path(text)
            try:
                text = path.read_text()
            except OSError as error:
                raise FaultError(
                    f"fault plan file {source!r} is not readable: {error}"
                ) from None
        return cls.from_json(text)
