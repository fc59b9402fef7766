"""
Hilbert functions and the cross-check harness
=============================================

The gap regions of a diagram count exactly the monomials missing from
the ideal in each degree, so the Hilbert function of the quotient R/I
drops out of the diagram by pure lattice-point counting.  The same
counting decides whether the function eventually becomes a constant.

Everything in the package is double-checked against brute-force
monomial algebra; the harness at the end runs that comparison over a
batch of random ideals.
"""

from klyachko import (MonomialIdeal, compute_diagram, compute_grading,
                      constant_hilbert_poly, hilbert_oracle, hilbert_value,
                      projective_space)
from klyachko.checks import run_suite

p2 = projective_space(2)
grading = compute_grading(p2)

ideal = MonomialIdeal([(0, 0, 2), (1, 0, 1), (1, 1, 0)])
diag = compute_diagram(p2, ideal)

# The quotient by this ideal defines three points of the plane with one
# embedded direction, so the function climbs to 3 and stays there.
print("h_{R/I} on the plane example:")
for a in range(-1, 5):
    value = hilbert_value(grading, diag, (a,))
    check = hilbert_oracle(ideal, grading, (a,))
    print(f"    degree {a}: {value}   (oracle {check})")

# When every gap region is finite and the exponent floors are zero, the
# function is eventually the total number of gap characters.
constant, note = constant_hilbert_poly(p2, diag)
print("eventual constant:", constant)

# An unbounded gap region on P^3 means the quotient keeps growing, and
# the verdict comes back with the offending cell as a witness.
p3 = projective_space(3)
space = compute_diagram(p3, MonomialIdeal([(1, 1, 0, 0), (0, 1, 1, 2),
                                           (0, 0, 2, 0)]))
print("\nh values on the space example:",
      [hilbert_value(compute_grading(p3), space, (a,)) for a in range(9)])
constant, note = constant_hilbert_poly(p3, space)
print("eventual constant:", constant)
print("reason:", note)

# The harness draws seeded random ideals and checks, per ideal: the
# degreewise membership identity against raw monomial divisibility, the
# diagram-to-generators roundtrip against the colon-ideal oracle,
# Hilbert values, and invariance of the diagram under saturation.
# Seeded, so reruns reproduce failures exactly.
report = run_suite(p2, seed=42, count=25)
print(f"\nrandom cross-checks on {report['fan']}"
      f" ({report['cases']} ideals, seed {report['seed']}):")
for prop in report["properties"]:
    print(f"    {prop['name']}: {prop['status']}")
