"""Straightening composition-indexed Schur functions.

A Schur function indexed by a weak composition is either zero or plus/minus
a partition-indexed Schur function.  The closed form reads this off from the
shifted exponent vector; the alternants confirm it the long way.
"""

from operator import add

from quasischur import pad, straighten
from quasischur.polynomial import class_map, staircase

for gamma in [(3, 1), (1, 3), (1, 2), (0, 2, 4), (2, 3, 2, 1, 0, 0, 0, 0)]:
    print(f"s_{gamma} straightens to {straighten(gamma)}")

print()
print("Checking (1,3) by the class maps of two alternants in 2 variables:")
# s_gamma = a_(gamma+delta) / a_delta, so s_gamma = sign * s_lambda exactly
# when the alternant of x^(gamma+delta) is sign times that of x^(lambda+delta);
# class_map writes an alternant as sorted exponent vector -> signed coefficient
gamma, delta = (1, 3), staircase(2)
normal = straighten(gamma)
lifted = class_map([(tuple(map(add, gamma, delta)), 1)])
expected = {tuple(map(add, pad(normal.shape, 2), delta)): normal.sign}
print("  x^(gamma+delta)          :", lifted)
print("  sign * x^(lambda+delta)  :", expected)
assert lifted == expected
