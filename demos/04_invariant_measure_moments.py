"""Invariant measures through their moments.

The invariant measure of a normalized weight is reached through the limits
of the product-weight coefficients.  For the Cantor-3 filter the moments are
exact dyadic rationals obeying nu^(3n) = nu^(n), nu^(3n +/- 2) = nu^(n)/2 --
a Riesz product measure: singular, non-atomic, full support.  For the Haar
filter the moments all tend to 1: the Dirac mass at z = 1.  Cycles of
theta -> N theta carrying peak weight are exactly what separates the two
regimes.
"""

from fractalmra import (
    DigitSystem,
    LaurentPolynomial,
    Scalar,
    TransferOperator,
    canonical_lowpass,
    classify_support,
    find_cycles,
    moment_table,
    riesz_samples,
    wiener_profile,
)

cantor = DigitSystem(3, (0, 2))
m0 = canonical_lowpass(cantor)
op = TransferOperator.from_filter(m0, 3)

table = moment_table(op, 81)
print("Cantor-3 moments 0..12:",
      {n: str(table.value(n).exact_str()) for n in range(13)})
print("all entries provably stabilized:",
      all(e.status == "stabilized" for e in table.rows()))

profile = wiener_profile(table, 81)
print("Wiener ratios s_k/k at k = 3, 9, 27, 81:",
      [f"{float(profile.rows[k].ratio):.5f}" for k in (3, 9, 27, 81)])
print("(the ratio tends to 0: the measure has no atoms)")

print()
print("cycle census:")
print("  Cantor-3:", find_cycles(op, 12).verdict)
haar_m0 = canonical_lowpass(DigitSystem(2, (0, 1)))
haar_op = TransferOperator.from_filter(haar_m0, 2)
print("  Haar:", [tuple(map(str, c.angles)) for c in find_cycles(haar_op, 8).cycles])
stretched = LaurentPolynomial({0: Scalar.inv_sqrt(2), 3: Scalar.inv_sqrt(2)})
stretched_op = TransferOperator.from_filter(stretched, 2)
print("  (1+z^3)/sqrt2 at N=2:",
      [tuple(map(str, c.angles)) for c in find_cycles(stretched_op, 8).cycles])

print()
cls = classify_support(op)
print("Cantor-3 classification:", cls.kind, "|", cls.diagnostics["note"])
cls2 = classify_support(stretched_op)
print("stretched-Haar classification:", cls2.kind)
for atom in cls2.atoms:
    print("  orbit", tuple(map(str, atom.cycle.angles)), "weights",
          tuple(map(str, atom.weights)))

print()
rows = riesz_samples(4, 9)
print("Riesz partial product (depth 4) at 9 grid points of [0, 2 pi):")
print("  ", [f"{v:.4f}" for _, v in rows])
print("(a pre-limit density; the weak-* limit is singular and has none)")
