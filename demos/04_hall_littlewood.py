"""Modified Hall-Littlewood polynomials from inversion-free fillings.

Summing t^maj F_pides over the inversion-free fillings of a shape and
applying the F -> s replacement yields the Schur expansion with polynomial
t-coefficients; every coefficient comes out non-negative.
"""

from quasischur import (
    Filling,
    hll_expansion,
    inv_zero_fillings,
    maj_stat,
    partitions_of,
    pides,
)

mu = (2, 2)
print(f"inversion-free fillings of {mu}:")
# the walk yields reading words (top row first); Filling gives the rows
for sigma in inv_zero_fillings(mu):
    f = Filling.from_reading_word(mu, sigma)
    print(f"  rows={f.rows}  word={sigma}  maj={maj_stat(f)}  pides={tuple(pides(sigma))}")

print()
print(f"Schur expansion for mu={mu}:")
print(" ", hll_expansion(mu))

print()
print("all shapes of weight 5:")
for mu in partitions_of(5):
    print(f"  {str(tuple(mu)):12} {hll_expansion(mu)}")
