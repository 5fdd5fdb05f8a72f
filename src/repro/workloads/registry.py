"""Name-based lookup of the built-in workloads (used by the CLI)."""

from __future__ import annotations

from typing import Callable

from repro.workloads.auction import auction, auction_n
from repro.workloads.base import Workload
from repro.workloads.smallbank import smallbank
from repro.workloads.tpcc import tpcc

#: The fixed-size built-in workloads by canonical name.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "smallbank": smallbank,
    "tpcc": tpcc,
    "auction": auction,
}


def get_workload(name: str) -> Workload:
    """Resolve a workload by name; ``auction(n)`` scales the Auction benchmark."""
    key = name.strip().lower()
    if key.startswith("auction(") and key.endswith(")"):
        # Parsed before hyphens are stripped, so ``auction(-1)`` is rejected
        # rather than read as Auction(1).
        inner = key[len("auction("):-1]
        try:
            items = int(inner)
        except ValueError:
            raise ValueError(f"bad Auction scaling factor {inner!r}") from None
        return auction_n(items)
    key = key.replace("-", "")
    if key in WORKLOADS:
        return WORKLOADS[key]()
    raise ValueError(
        f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)} or 'auction(N)'"
    )
