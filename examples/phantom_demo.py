"""The phantom problem, concretely: the paper's Figure 3 schedule.

Builds the example schedule of Section 2 by hand on the multiversion
schedule substrate — two PlaceBid instances (T1, T2) and one FindBids
instance (T3) — then:

1. validates it against the Section 3.3 schedule rules and the MVRC
   admissibility conditions (Definition 3.3);
2. computes its dependencies, including the *predicate* rw-antidependency
   created by T3's predicate read observing Bids before T2's update — the
   phantom-style conflict earlier robustness work could not handle;
3. shows that the one counterflow dependency matches Lemma 4.1 and that
   every serialization-graph cycle (there is none here) would have to be
   type-II (Theorem 4.2).

Run with:  python examples/phantom_demo.py
"""

from repro.btp.unfold import unfold
from repro.engine import Instantiator, TupleUniverse, execute
from repro.mvsched import (
    allowed_under_mvrc,
    dependencies,
    is_conflict_serializable,
    serialization_graph,
)
from repro.workloads import auction

workload = auction()
find_bids, *place_bid = unfold(workload.programs)
place_bid_with_q5, place_bid_without_q5 = place_bid

universe = TupleUniverse(workload.schema, {"Buyer": 2, "Bids": 3, "Log": 0})
instantiator = Instantiator(universe)

buyer = universe.existing("Buyer")
bids = universe.existing("Bids")

# T1: PlaceBid where the IF is false (no q5) over buyer t1 / bid u1.
t1 = instantiator.instantiate(
    place_bid_without_q5, [(buyer[0],), (bids[0],), ()], tx=1
)
# T2: PlaceBid where the IF is true (q5 executes) over the same buyer/bid.
t2 = instantiator.instantiate(
    place_bid_with_q5, [(buyer[0],), (bids[0],), (bids[0],), ()], tx=2
)
# T3: FindBids over buyer t2, predicate-reading all of Bids.
t3 = instantiator.instantiate(find_bids, [(buyer[1],), tuple(bids)], tx=3)

for transaction in (t1, t2, t3):
    print(transaction)
print()

# Interleave as in Figure 3: T1 commits first; T2 reads the bid; T3 runs
# its predicate read before T2 installs the new bid; T3 commits last.
# Units: T1 = [q3-chunk, q4, q6, C], T2 = [q3-chunk, q4, q5, q6, C],
#        T3 = [q1-chunk, q2-chunk, C].
unit_order = [1, 1, 1, 1, 2, 2, 3, 3, 2, 2, 2, 3]
schedule = execute([t1, t2, t3], unit_order, universe)
assert schedule is not None, "interleaving rejected"
print("schedule:", schedule)
print()

schedule.validate()
print("valid multiversion schedule (Section 3.3): yes")
print("allowed under MVRC (Definition 3.3):", allowed_under_mvrc(schedule))
print()

print("dependencies (note the predicate rw-antidependency PR3 -> W2):")
for dep in dependencies(schedule):
    print(f"  {dep}")
print()

counterflow = [d for d in dependencies(schedule) if d.counterflow]
print("counterflow dependencies:", ", ".join(str(d) for d in counterflow) or "none")
print("(Lemma 4.1: under MVRC only (predicate) rw-antidependencies can be counterflow)")
print()

graph = serialization_graph(schedule)
print("conflict serializable (Theorem 3.2):", is_conflict_serializable(schedule))
print("serialization-graph edges:",
      sorted(graph.deps_between))
