"""Charts on level-1 polydisks and the local shape of stabilizer words.

A fiber of reduction mod p is parametrized by two coordinates once the
third has a unit partial derivative; conjugating word powers into chart
coordinates exposes their mod-p linearizations: a translation in the
parabolic case, unipotent shears with explicit constants otherwise.
"""

from markoff_padic import AutWord, PadicInt, parametrize, recentre, sqrt
from markoff_padic.polydisk import verify_stabilizer_expansions, verify_xi_expansion
from markoff_padic.surface import SurfacePoint, lift_point

# a chart over p = 7 at the lift of (1, 4, 1) on X_0
pt = lift_point((1, 4, 1), 0, 7, 4)
chart = parametrize(pt)
print("chart base:", chart.base.residues(), " dP/dx =", chart.partial.residue_mod(1), "(unit)")
print("xi expansion mod p^2:", verify_xi_expansion(chart)["passed"])

centred = recentre(chart)
print("recentred base:", centred.base.residues(), "(base coords now T_p-fixed)")

rep = verify_stabilizer_expansions(centred, "g-and-h")
print("unipotent expansions of (s_z s_x)^12, (s_x s_y)^12 and p-th powers:", rep["passed"])

rep = verify_stabilizer_expansions(centred, "nonpara-f")
print("rank-one expansion of (s_y s_z)^12:", rep["passed"])

# the exceptional p = 5 chart at (sqrt(D-4), 2, 0) with D = 3
s = sqrt(PadicInt(5, 4, 3 - 4))
pt5 = SurfacePoint(s, PadicInt(5, 4, 2), PadicInt(5, 4, 0), PadicInt(5, 4, 3)).validate()
ch5 = parametrize(pt5)
rep = verify_stabilizer_expansions(ch5, "parab-f")
print("parabolic translation of (s_y s_z)^5 at p=5, D=3:", rep["passed"])
img = ch5.apply_word_uv(AutWord(("sy", "sz")).power(5), ch5.uv(0, 0))
print("its translation vector mod 5:", (img[0].residue % 5, img[1].residue % 5))
