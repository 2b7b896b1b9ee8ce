"""Modified Hall-Littlewood polynomials from inversion-free fillings.

Summing t^maj F_pides over the inversion-free fillings of a shape and
applying the F -> s replacement yields the Schur expansion with polynomial
t-coefficients; every coefficient comes out non-negative.
"""

from quasischur import (
    hl_fundamental_expansion,
    hll_expansion,
    inv_zero_fillings,
    partitions_of,
)

mu = (2, 2)
print(f"inversion-free fillings of {mu}, as reading words (top row first):")
for sigma in sorted(inv_zero_fillings(mu)):
    print(f"  {sigma}")

print()
print(f"the sum of t^maj F_pides over them, for mu={mu}:")
print(" ", hl_fundamental_expansion(mu))

print()
print(f"Schur expansion for mu={mu}:")
print(" ", hll_expansion(mu))

print()
print("all shapes of weight 5:")
for mu in partitions_of(5):
    print(f"  {str(tuple(mu)):12} {hll_expansion(mu)}")
