"""The sign-reversing involution behind the replacement theorem, run live.

Monomials of F_alpha, lifted by the staircase and antisymmetrized, cancel in
pairs under an exponent exchange; only the monomial with exponent vector
alpha itself survives.  The verifier checks all four clauses of that
argument for a given composition.
"""

import json

from quasischur import (
    Composition,
    constrained_monomials,
    involution,
    verify_involution,
)
from quasischur.elw import locate_block

alpha = Composition((2, 3, 3))

word = (1, 1, 2, 2, 2, 3, 5, 5)
step = locate_block(alpha, word)
exponents = tuple(word.count(letter) for letter in range(1, len(word) + 1))
print(f"word {word}: exponents {exponents}")
print(f"  matched prefix s={step.s}, block width r={step.r}")
print(f"  exchanged pair {step.before} -> {step.after}")
print(f"  partner word {involution(alpha, word)}")
print()

report = verify_involution(alpha)
print(f"verification for alpha={tuple(alpha)}:")
print(json.dumps(report.to_json_dict(), indent=2))

print()
print("family sizes for small compositions:")
for small in [(2,), (1, 1), (2, 1), (2, 2)]:
    count = sum(1 for _ in constrained_monomials(small))
    print(f"  alpha={small}: {count} constrained monomials")
