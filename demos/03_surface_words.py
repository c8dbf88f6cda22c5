"""Surface points, automorphism words, and the ultrametric distance.

Words act with the rightmost letter first, so ("sy", "sz") is the element
s_y s_z whose action on (y, z) is multiplication by C(x)^2.
"""

from markoff_padic import AutWord, apply_word, dist, point
from markoff_padic.chebyshev import companion_power
from markoff_padic.surface import apply_generator, lift_point

p, K = 7, 3
pt = point(3, 3, 3, 0, p, K)
print("base point:", pt.residues(), "on X_0 (P = 0)")
print("s_x image :", apply_generator("sx", pt).residues(), " (yz - x = 6)")

w = AutWord.parse("sy sz")
img = apply_word(w, pt)
m = companion_power(pt.x, 2)
my, mz = m.apply((pt.y, pt.z))
print("word sy sz:", img.residues(), "= C(x)^2 action:", (img.x.residue, my.residue, mz.residue))

print("free reduction: 'sx sx sy' ->", str(AutWord.parse("sx sx sy")))

other = lift_point((1, 4, 1), 0, p, K)
print("dist((3,3,3),(1,4,1)-lift) =", dist(pt, other))
print("dist(pt, pt)               =", dist(pt, pt))

# The action is isometric: words never change distances.
w2 = AutWord.parse("sx sy sz pxy ex")
print(
    "isometry:",
    dist(apply_word(w2, pt), apply_word(w2, other)) == dist(pt, other),
)

print("reduction mod p of the lift:", other.residues(1))
