"""From a fundamental quasisymmetric expansion to a Schur expansion.

For a symmetric polynomial written as a combination of Gessel fundamentals
F_alpha, replacing each F_alpha by the composition-indexed Schur function
s_alpha and straightening gives the Schur expansion directly.
"""

from quasischur import (
    Expansion,
    elw_to_schur,
    extract_f_expansion,
    schur_ssyt,
)

# start from a Schur function we know, forget its name, and recover it
p = schur_ssyt((2, 2, 1), 5)
f_expansion = extract_f_expansion(p)
print("F-expansion of s[2,2,1]:")
print(" ", f_expansion)

s_expansion = elw_to_schur(f_expansion)
print("after the F -> s replacement:")
print(" ", s_expansion)

# the round trip recovers exactly the Schur function we started from
assert s_expansion == Expansion("s", 5, {(2, 2, 1): 1})
print("round trip confirmed: s[2,2,1]")
