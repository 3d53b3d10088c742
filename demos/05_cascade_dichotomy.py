"""The cascade dichotomy, exactly.

Lattice vectors model the fractal Hilbert space with no floating point: the
scaling vector is the attractor indicator, and the cascade operator is
M = U^-1 m(T).  The canonical filter fixes the scaling vector.  Shifting the
filter to z^3 m0 makes consecutive cascade iterates exactly orthogonal with
||difference||^2 = 2: the iteration diverges as badly as possible, the other
horn of the dichotomy.  The inner products are reproduced through a second,
independent route: the transfer operator applied to the correlation
polynomial.
"""

from fractalmra import (
    DigitSystem,
    TransferOperator,
    canonical_lowpass,
    cascade_experiment,
    cascade_step,
    correlation,
    gram_section,
    inner,
    monomial,
    representation_limit,
    scaling_vector,
    wavelet_generators,
)

cantor = DigitSystem(3, (0, 2))
phi = scaling_vector(cantor)
m0 = canonical_lowpass(cantor)

print("M phi == phi for the canonical filter:", cascade_step(phi, m0) == phi)

print()
print("cascade with m' = z^3 m0:")
for row in cascade_experiment(cantor, monomial(3) * m0, 6):
    print(
        f"  n={row.n}: ||M^n phi - M^(n+1) phi||^2 = {row.diff_norm_sq.exact_str()},"
        f" inner = {row.inner.exact_str()}"
        f" (transfer route: {row.transfer_inner.exact_str()})"
    )

print()
print("correlation p(phi, M' phi) =", correlation(phi, cascade_step(phi, monomial(3) * m0)))

print()
gens = wavelet_generators(cantor)
print("wavelet generators:")
for i, g in enumerate(gens, start=1):
    print(f"  psi_{i} = {g!r} (norm^2 = {g.norm_sq().exact_str()})")
section = gram_section(cantor, gens, range(-2, 3), range(-5, 6))
print(f"Gram of the {section.size} dilated translates is the exact identity:",
      section.is_identity())

print()
print("matrix coefficients of dilated translation averages converge to the")
print("invariant-measure moments:")
op = TransferOperator.from_filter(m0, cantor.scale)
for m in (0, 1, 2, 4, 6):
    v = representation_limit(op, 8, m)
    print(f"  m={m}: {v.exact_str()}")
