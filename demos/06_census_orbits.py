"""Counting points over Z/p^k and partitioning them into orbits.

Level 1 solves the quadratic in z for every (x, y) from one table of
square roots mod p; higher levels lift each nonsingular mod-p point through
its smooth fiber of p^{2(k-1)} points.  Aut orbits are Vieta orbits joined
by the 24 sign changes and coordinate permutations.
For p = 3 mod 4 and D = 0 the census confirms the p(p-3) count and the
p^k-divisibility of every Vieta orbit.  The closing table checks that Aut
acts transitively on X_0*(Z/p^2) for every prime 5 <= p < 50 (p = 47 has
over 4.5M points at level 2).
"""

import time

from markoff_padic import (
    check_transitivity,
    count_points,
    enumerate_points,
    orbit_divisibility,
    orbits,
)

for p in (7, 11, 19):
    rep = count_points(p, 1, 0)
    print(f"|X_0*(Z/{p})| = {rep['count']:4d}   p(p-3) = {rep['formula_expected']}")

# p = 5 is 1 mod 4: the proposition's hypothesis fails and the count is p(p+3)
rep = count_points(5, 1, 0)
print(f"|X_0*(Z/5)| = {rep['count']} (formula not applicable: {not rep['formula_applicable']})")

print("level-2 set size over p=7:", len(enumerate_points(7, 2, 0)), "= 28 * 49")

part = orbits(7, 2, 0, gens="gamma")
print("Vieta orbits at level 2:", part.orbit_sizes, "-> divisible by 49:",
      all(s % 49 == 0 for s in part.orbit_sizes))

print("divisibility report p=11, k=2:", orbit_divisibility(11, 2, 0)[1])

for k in (1, 2, 3):
    print(f"Aut transitive on X_0*(Z/7^{k}):", check_transitivity(7, k, 0, "aut"))

print("\nAut transitivity on X_0*(Z/p^2), D = 0:")
print("   p    points  transitive  seconds")
for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
    t0 = time.perf_counter()
    part = orbits(p, 2, 0, gens="aut")
    print(f"{p:4d} {part.total:9d}  {str(part.transitive):>10}  {time.perf_counter() - t0:7.2f}")
