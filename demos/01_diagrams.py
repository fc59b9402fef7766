"""
Computing Klyachko diagrams
===========================

A monomial ideal in the Cox ring of a smooth complete toric variety is
described, cone by cone, by a shifted orthant of characters minus a set
of "gaps".  This script builds the diagram of a small ideal on the
projective plane and pokes at it.
"""

from klyachko import (MonomialIdeal, ascii_diagram, compute_diagram,
                      compute_grading, ideal_sum, projective_space,
                      region_points, shift_diagram, sum_diagram)

# The plane has three rays; the Cox ring is C[x0, x1, x2] with the usual
# single Z-grading by total degree.
p2 = projective_space(2)
grading = compute_grading(p2)
print("rays:", p2.rays)
print("maximal cones:", p2.max_cones)
print("degrees of the variables:", grading.variable_degrees())

# Generators are exponent vectors.  This is I = (x2^2, x0*x2, x0*x1).
ideal = MonomialIdeal([(0, 0, 2), (1, 0, 1), (1, 1, 0)])
diag = compute_diagram(p2, ideal)

# s records the exponent floor of each variable across the generators.
print("\nminimum exponents s:", diag.min_exponents)

# Each maximal cone carries a finite or infinite gap region.  Here all
# three are finite, so we can list them as character points.
for cone in p2.max_cones:
    gaps = diag.gaps(cone)
    pts = region_points(p2, gaps)
    print(f"gaps over cone {cone}: {pts if pts else 'none'}")

# Membership of a character in the cone's filtration piece is a direct
# lookup.  (0,0) is a gap over (1,2): the constant 1 is not in the ideal.
print("\n(0,0) member over (1,2):", diag.member((1, 2), (0, 0)))
print("(2,0) member over (1,2):", diag.member((1, 2), (2, 0)))

# An ascii picture per cone, the hash marks are members and the o's gaps.
print()
print(ascii_diagram(p2, diag, radius=4))

# Diagrams add: the diagram of I + J comes from the two diagrams alone,
# no monomial arithmetic needed.  We verify against the direct route.
other = MonomialIdeal([(0, 2, 4), (0, 3, 1), (0, 5, 0)])
combined = sum_diagram(p2, diag, compute_diagram(p2, other))
direct = compute_diagram(p2, ideal_sum(ideal, other))
print("sum rule agrees with direct computation:",
      combined.difference(direct) is None)

# Twisting the ideal by a divisor translates every cone's data.  The
# entries below are the (0,2) cone's gaps after twisting by one power
# of x0, pushed out along the cone's own coordinates.
twisted = shift_diagram(p2, diag, (1, 0, 0))
print("twisted gaps over (0,2):",
      region_points(p2, twisted[(0, 2)].gaps))
