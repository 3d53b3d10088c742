"""Spectral-set duality: which Cantor systems carry Fourier bases.

A dual digit set B makes the p x p phase matrix unitary (decided exactly
over the cyclotomic integers).  The induced spectrum Lambda collects base-N
strings over B; absence of nontrivial dual-digit cycles certifies that the
exponentials {z^n : n in Lambda} form an ONB on the attractor.  The
middle-third Cantor set has no dual at all -- its exponentials contain no
orthogonal triple.
"""

import numpy as np

from fractalmra import (
    DigitSystem,
    b_cycles,
    dual_matrix,
    dual_transfer_eval,
    exponential_gram,
    lambda_set,
    onb_defect,
)

quarter = DigitSystem(4, (0, 2))
pair = dual_matrix(quarter, (0, 1))
print("M_4({0,2},{0,1}) unitary:", pair.exact_unitary, "| defect", pair.defect)
print(np.round(pair.matrix().real, 6))

prefix = lambda_set(pair, 8).prefix
print("spectrum prefix:", prefix)
gram = exponential_gram(quarter, prefix, depth=40)
print("exponential Gram deviation from identity:",
      float(np.max(np.abs(gram - np.eye(8)))))

report = b_cycles(pair, 6)
print("dual-digit cycles trivial only:", report.trivial_only,
      "->", [tuple(map(str, c.angles)) for c in report.cycles])

sums = onb_defect(pair, 0.3, lambda_set(pair, 64).prefix)
print("partial sums of |B(0.3 - n)|^2 over the prefix: start",
      f"{sums[0]:.6f}, end {sums[-1]:.6f} (monotone, <= 1)")

print()
middle = DigitSystem(3, (0, 2))
print("M_3({0,2},{0,1}):", dual_matrix(middle, (0, 1)).verdict)
g3 = np.abs(exponential_gram(middle, range(10), depth=40))
off = g3[np.triu_indices(10, 1)]
print(f"smallest |<z^m, z^n>| among exponents 0..9 on Cantor-3: {off.min():.2e}")
print("(never zero: no two exponentials are orthogonal, let alone a basis)")

print()
print("dual transfer operator is averaging:",
      f"R_B 1 (xi=0.37) = {dual_transfer_eval(pair, lambda x: 1.0, 0.37, 1):.12f}")
print("but not 1-periodic:",
      f"R_B cos(0.7 xi) at 0.35 = {dual_transfer_eval(pair, lambda x: np.cos(0.7 * float(x)), 0.35, 1):.6f},",
      f"at 1.35 = {dual_transfer_eval(pair, lambda x: np.cos(0.7 * float(x)), 1.35, 1):.6f}")
