"""The end-to-end minimal-polydisk certificate.

For admissible (p, K, D) the pipeline produces a replayable JSON
certificate: base point and chart, a strict move of size exactly 1/p,
residual transitivity of the conjugated stabilizers on (Z/p)^2, and a unit
minimal-subdisk determinant.
"""

import json
import time

from markoff_padic import certify_minimal_polydisk
from markoff_padic.certify import certificate_json, replay

for p, K, D in ((7, 3, 0), (13, 3, 0), (5, 3, 3)):
    cert = certify_minimal_polydisk(p, K, D)
    print(f"(p={p}, K={K}, D={D}): route={cert['route']}")
    print(f"  base {cert['base_point']['recentred']}")
    print(f"  strict move of length {len(cert['strict_move']['word'].split())}, dist {cert['strict_move']['dist']}")
    print(f"  residual transitivity: {cert['residual_transitivity']['transitive']}")
    print(f"  subdisk det ({cert['minimal_subdisk']['method']}): "
          f"{cert['minimal_subdisk']['det']} unit={cert['minimal_subdisk']['unit']}")
    print(f"  overall: {cert['overall']}")

cert = certify_minimal_polydisk(7, 3, 0)
revived = json.loads(certificate_json(cert))
ok, _ = replay(revived)
print("replay of the serialized certificate reproduces it byte-for-byte:", ok)

# the optimized exponents from rotation orders, when shorter words suffice
cert = certify_minimal_polydisk(13, 3, 0, optimize_exponent=True)
print("optimized stabilizer powers at p=13:", cert["chart"]["stabilizer_powers"],
      "(uniform choice would be", (13 * 13 - 1) // 4, ") overall:", cert["overall"])

# the stabilizers have (p^2-1)/2 letters and their p-th powers in the
# minimal-subdisk stage about p^3/2, but each is a single run (s_a s_b)^m,
# applied as one companion power C(c)^{2m}
for p in (47, 101, 199):
    start = time.perf_counter()
    cert = certify_minimal_polydisk(p, 3, 0)
    seconds = time.perf_counter() - start
    letters = [len(w.split()) for w in cert["residual_transitivity"]["generators"]]
    print(f"certify p={p}: route={cert['route']} overall={cert['overall']} "
          f"word lengths {letters} in {seconds:.2f} s")
