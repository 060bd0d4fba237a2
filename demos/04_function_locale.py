"""The space of metric maps, probed through (source open, target open) pairs.

A map induces a filter of pairs "f maps u into v"; the six axioms of that
presentation are checked on concrete instances with a three-valued verdict.
The pairs (b(c, q/4), v shrunk by q) that a map satisfies reconstruct the
region it sends into v.  The image of a grid center c is measured once:
the stage ball of the image that sits deepest inside v (``deepest_stage``)
has a margin, and the pair holds at shrink level q iff that margin exceeds q.
"""

from fractions import Fraction

from formalballs import (
    BallOpen,
    FormalBall,
    MMInstance,
    PairProp,
    check_axiom,
    holds,
    member_query,
    point_of_carrier,
    rational_line,
    round_trip,
    tau_from_point,
)
from formalballs.maps import line_map

LINE = rational_line()


def bo(*pairs):
    return BallOpen(LINE, tuple(FormalBall(Fraction(c), Fraction(r)) for c, r in pairs))


half = line_map(Fraction(1, 2), 0, label="x/2")
print("does x/2 map b(0,1) into b(0,2)?")
print(f"  {holds(PairProp(bo((0, 1)), bo((0, 2))), half, 8).label}")

print("\naxiom instances get Pass / Inconclusive / Fail verdicts:")
inst = MMInstance("MM3", {"u": bo((0, 1)), "q": Fraction(1, 4)})
rep = check_axiom(inst, half, 16)
print(f"  MM3 (small targets exist) on x/2: {rep['result']}")
shifted = line_map(1, 10, label="x+10")
rep = check_axiom(MMInstance("MM4", {"u": bo((0, 1)), "v": bo((0, 1))}), shifted, 16)
print(f"  MM4 on x+10 with untouched v:    {rep['result']} (premise never holds)")

print("\nrecovering the region x+10 sends into b(0,2) from the pairs it satisfies:")
tau = tau_from_point(shifted, bo((0, 2)), 256)
src = point_of_carrier(LINE, Fraction(-10))
print(f"  -10 lands in the reconstructed region for x+10: "
      f"{member_query(src, tau, 32).label}")

print("\nround trip: reconstruct, then audit soundness and coverage:")
probes = [point_of_carrier(LINE, Fraction(k, 2)) for k in range(-4, 5)]
rep = round_trip(half, bo((0, 2)), probes, 256)
print(f"  x/2: sound={rep['sound']}, covered {rep['covered']}/{rep['total_in_v']}")
