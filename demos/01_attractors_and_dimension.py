"""Digit systems and their attractors.

A digit system (N, S) generates the maps sigma_a(x) = (x + a)/N for a in S.
Their attractor is a Cantor-type set: for (3, {0,2}) the middle-third Cantor
set, for (4, {0,2}) the quarter Cantor set of dimension 1/2.  This script
walks the basic geometry: the Hausdorff dimension, and the Fourier transform
B(k) of the self-similar (Hutchinson) measure.
"""

from fractalmra import DigitSystem, HutchinsonTransform, hausdorff_dimension

for scale, digits in [(3, (0, 2)), (4, (0, 2)), (6, (0, 2, 4)), (2, (0, 1))]:
    sys = DigitSystem(scale, digits)
    print(f"system {sys}: p = {sys.p}, dimension = {hausdorff_dimension(sys):.16f}")

print()
cantor = DigitSystem(3, (0, 2))
print("Fourier transform of the Hutchinson measure (truncated product):")
H3 = HutchinsonTransform(cantor, depth=40)
H4 = HutchinsonTransform(DigitSystem(4, (0, 2)), depth=40)
ks = [0, 1, 2, 3]
for k, b3, b4 in zip(ks, H3.values(ks), H4.values(ks)):
    print(
        f"  |B3({k})| = {abs(b3):.6f}   |B4({k})| = {abs(b4):.6f}"
        f"   (tail bound {H3.tail_bound(k):.2e})"
    )
print("note: B4 vanishes at odd integers -- the quarter Cantor system is of")
print("orthogonal type, while B3 never vanishes on the integers.")
