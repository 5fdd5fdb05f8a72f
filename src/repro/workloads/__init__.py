"""The paper's benchmarks: SmallBank, TPC-C, Auction and Auction(n).

Every workload bundles a schema, its programs' SQL text in the Appendix A
fragment, the foreign-key annotations and the program abbreviations used
in Figures 6/7.  The SQL is the one definition of each program: the SQL
front-end translates it into the BTPs of the paper's Figures 2, 10 and 17,
exactly as it translates workload files.
"""

from repro.workloads.auction import auction, auction_n
from repro.workloads.base import Workload
from repro.workloads.loader import load_workload
from repro.workloads.registry import WORKLOADS, get_workload
from repro.workloads.smallbank import smallbank
from repro.workloads.tpcc import tpcc

__all__ = [
    "Workload",
    "auction",
    "auction_n",
    "smallbank",
    "tpcc",
    "WORKLOADS",
    "get_workload",
    "load_workload",
]
