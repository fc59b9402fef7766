"""
B-saturation and first local cohomology
=======================================

The diagram of a monomial ideal only remembers the ideal up to
saturation with respect to the irrelevant ideal B.  Reading generators
back off the diagram therefore produces the B-saturation, and the
degreewise difference between an ideal and its saturation is the first
local cohomology module H^1_B.
"""

from klyachko import (MonomialIdeal, compute_diagram, compute_grading,
                      hirzebruch, local_cohomology_h1, monomial_str,
                      projective_space, reconstruct_generators,
                      saturate_oracle)

p2 = projective_space(2)
grading = compute_grading(p2)

# A deliberately non-saturated ideal on the plane:
# I = (x0^3*x1, x0*x1*x2^2, x2^3, x1^3).
ideal = MonomialIdeal([(3, 1, 0), (1, 1, 2), (0, 0, 3), (0, 3, 0)])
diag = compute_diagram(p2, ideal)

# Reconstruction scans a proven exponent box, visiting only the exponents
# where a gap cell starts or ends, and keeps the monomials of the diagram
# that stop being members when divided by any one variable.
sat = reconstruct_generators(grading, diag)
print("generators of the saturation:")
for g in sorted(sat.gens):
    print("   ", monomial_str(g))

# The brute-force colon-ideal oracle agrees.
assert set(sat.gens) == set(saturate_oracle(ideal, p2).gens)
print("matches the colon-ideal oracle: True")

# H^1_B in each degree is spanned by the monomials of the saturation
# that the ideal itself misses.  Only finitely many degrees are nonzero.
print("\nH^1 dimensions by degree:")
for a in range(7):
    piece = local_cohomology_h1(grading, ideal, (a, 0, 0))
    marks = piece.monomial_strings()
    print(f"    degree {a}: dim {piece.dimension}"
          + (f"   basis {marks}" if marks else ""))

# On a Hirzebruch surface the class group has rank two and one variable
# has a negative first coordinate, so "sufficiently positive" degrees
# hide some saturation effects.  deg(y1) = (-3, 1) on H_3, and the ideal
# (x1, x0^3*y1) is not saturated: y1*(x0*y1)^3 = (x0^3*y1)*y1^3 lies in
# it while x0*y1 generates part of B, so y1 is in the saturation.
h3 = hirzebruch(3)
h3_grading = compute_grading(h3)
print("\nvariable degrees on H_3:", h3_grading.variable_degrees())
surface_ideal = MonomialIdeal([(0, 1, 0, 0), (3, 0, 0, 1)])
surface_sat = reconstruct_generators(
    h3_grading, compute_diagram(h3, surface_ideal))
names = ("x0", "x1", "y0", "y1")
print("saturation of (x1, x0^3*y1):",
      [monomial_str(g, names) for g in sorted(surface_sat.gens)])
assert set(surface_sat.gens) == set(saturate_oracle(surface_ideal, h3).gens)
