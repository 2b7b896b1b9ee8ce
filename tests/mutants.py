"""Committed mutants: deliberate faults that the suite must catch.

Each entry is a literal substitution in one source file, `old` -> `new`, and
the ids of the tests that must fail with it applied.  `old` must occur exactly
once in the file, so an entry whose text the code has outgrown fails loudly
instead of passing with no mutation in place.  test_mutants.py applies each
entry to a copy of the checkout and runs the listed tests there.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    test_ids: tuple[str, ...]


MUTANTS = (
    Mutant(
        # the signed sort goes wrong on a sliver of 5-entry vectors only, so
        # only the n! oracle's comparisons at n = 5 see it
        name="sort-sign-flipped-at-5",
        file="src/quasischur/polynomial.py",
        old="    return tuple(exps[i] for i in order), permutation_sign(order)\n",
        new=(
            "    flip = -1 if len(exps) == 5 and exps[0] < exps[4] else 1\n"
            "    return tuple(exps[i] for i in order), flip * permutation_sign(order)\n"
        ),
        test_ids=(
            "tests/test_schur.py::TestOracleAgreement::test_straighten_matches_alternant[5]",
            "tests/test_elw.py::TestVerify::test_polynomial_clause_matches_antisymmetrize[5]",
        ),
    ),
    Mutant(
        name="pairs-cancel-with-equal-signs",
        file="src/quasischur/elw.py",
        old="            if (b.sign, b.shape) != (-a.sign, a.shape):\n",
        new="            if (b.sign, b.shape) != (a.sign, a.shape):\n",
        test_ids=(
            "tests/test_elw.py::TestVerify::test_2_1",
            "tests/test_elw.py::TestVerify::test_paper_case_2_3_3",
        ),
    ),
    Mutant(
        name="round-trip-unchecked",
        file="src/quasischur/elw.py",
        old=(
            "        if back is None or back[2] != gamma:\n"
            "            report.witness = report.witness or word\n"
            "        elif image <= gamma:\n"
        ),
        new="        if image <= gamma:\n",
        test_ids=(
            "tests/test_elw.py::TestVerify::test_sign_clause_detects_a_map_that_is_not_an_involution",
        ),
    ),
    Mutant(
        name="class-count-by-abs-sign",
        file="src/quasischur/hall_littlewood.py",
        old="        counts[normals[mask].sign] += sum(majs.values())\n",
        new="        counts[abs(normals[mask].sign)] += sum(majs.values())\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1]",
            "tests/test_cli.py::TestRecordedDigests::test_stdout_matches_recorded_sha256",
        ),
    ),
    Mutant(
        name="conjectured-from-every-filling",
        file="src/quasischur/hall_littlewood.py",
        old="    conjectured = elw_to_schur(_f_expansion(n, kept))\n",
        new="    conjectured = elw_to_schur(_f_expansion(n, table))\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_counterexample_shape",
            "tests/test_cli.py::TestRecordedDigests::test_stdout_matches_recorded_sha256",
        ),
    ),
    Mutant(
        # every plus-class filling is kept, whatever its Schensted shape
        name="kept-tally-without-the-schensted-test",
        file="src/quasischur/hall_littlewood.py",
        old="        if normal.sign > 0 and rsk_shape(sigma) == normal.shape:\n",
        new="        if normal.sign > 0:\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_counterexample_shape",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,2]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_empty_discrepancy_up_to_six[4]",
        ),
    ),
    Mutant(
        # the tally's maj becomes a power of q instead of t
        name="f-expansion-puts-maj-on-q",
        file="src/quasischur/hall_littlewood.py",
        old="        _composition_of_mask(mask, n): QT({(0, maj): count for maj, count in majs.items()})\n",
        new="        _composition_of_mask(mask, n): QT({(maj, 0): count for maj, count in majs.items()})\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_hll_column",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1]",
        ),
    ),
    Mutant(
        name="schur-positive-skips-a-negative-coefficient",
        file="src/quasischur/hall_littlewood.py",
        old="            if c < 0:\n                return False\n",
        new="            if c < 0:\n                continue\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_schur_positive_refuses_a_negative_coefficient",
        ),
    ),
    Mutant(
        # the zeta transform subtracts and its Moebius inverse adds
        name="subset-sums-sign-flipped",
        file="src/quasischur/quasisym.py",
        old="    combine = QT.__add__ if sign > 0 else QT.__sub__\n",
        new="    combine = QT.__sub__ if sign > 0 else QT.__add__\n",
        test_ids=(
            "tests/test_quasisym.py::TestExtract::test_schur_21",
            "tests/test_quasisym.py::TestExtractMatchesReference::test_every_small_sign_vector[2]",
            "tests/test_quasisym.py::TestIsSymmetricExpansion::test_random_qt_combinations[4]",
            "tests/test_readers.py::TestSeededDocuments::test_duplicates_and_cancellation[2]",
        ),
    ),
    Mutant(
        # the pass for the descent position 1 is skipped
        name="subset-sums-bit-skipped",
        file="src/quasischur/quasisym.py",
        old="    for i in range(n - 1):\n        bit = 1 << i\n",
        new="    for i in range(1, n - 1):\n        bit = 1 << i\n",
        test_ids=(
            "tests/test_quasisym.py::TestExtract::test_h_n_is_single_fundamental[2]",
            "tests/test_quasisym.py::TestExtractMatchesReference::test_every_small_sign_vector[3]",
            "tests/test_quasisym.py::TestIsSymmetricExpansion::test_every_small_sign_vector[3]",
            "tests/test_readers.py::TestSeededDocuments::test_duplicates_and_cancellation[3]",
        ),
    ),
    Mutant(
        # the Moebius inverse adds like the zeta transform
        name="subset-sums-sign-ignored",
        file="src/quasischur/quasisym.py",
        old="    combine = QT.__add__ if sign > 0 else QT.__sub__\n",
        new="    combine = QT.__add__\n",
        test_ids=(
            "tests/test_quasisym.py::TestExtract::test_round_trip_single_fundamental",
            "tests/test_quasisym.py::TestExtractMatchesReference::test_schur_functions[4]",
            "tests/test_readers.py::TestSeededDocuments::test_duplicates_and_cancellation[4]",
        ),
    ),
    Mutant(
        # _wrap takes the read map unchecked, so nothing else refuses it
        name="reader-keeps-a-negative-q-t-exponent",
        file="src/quasischur/polynomial.py",
        old=(
            "        if qe < 0 or te < 0:\n"
            '            raise ValueError("negative q/t exponent")\n'
            "        _accumulate(out, (qe, te), c)\n"
        ),
        new="        _accumulate(out, (qe, te), c)\n",
        test_ids=(
            "tests/test_readers.py::TestNegativeQtExponents::test_refused_by_every_reader[q]",
            "tests/test_readers.py::TestNegativeQtExponents::test_refused_by_every_reader[t]",
            "tests/test_readers.py::TestNegativeQtExponents::test_refused_by_every_reader[both-signs]",
        ),
    ),
    Mutant(
        # gt with its arguments swapped is lt: the mask is the complement of
        # the descent set, which only the one-cell shape cannot see
        name="census-mask-compared-with-lt",
        file="src/quasischur/hall_littlewood.py",
        old="        mask = sum(compress(bits, map(gt, where, where[1:])))\n",
        new="        mask = sum(compress(bits, map(gt, where[1:], where)))\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_reads_each_word_as_maj_stat_and_pides[2,1]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1]",
        ),
    ),
    Mutant(
        # a tail letter over a smaller cell of the top lower row adds no maj
        name="census-junction-weight-dropped",
        file="src/quasischur/hall_littlewood.py",
        old="        junction = [lower + (k if a >= r else 0) for a in range(k)]\n",
        new="        junction = [lower] * k\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[4]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1]",
        ),
    ),
    Mutant(
        # the descent bit of a free pair i, i + 1 lands on the pair above it
        name="census-free-pair-bit-shifted",
        file="src/quasischur/hall_littlewood.py",
        old="            bit = 1 << (s - 1) if free[a + 1] == s + 1 else 0\n",
        new="            bit = 1 << s if free[a + 1] == s + 1 else 0\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_reads_each_word_as_maj_stat_and_pides[1,1]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1]",
        ),
    ),
    Mutant(
        # a tail p.sigma' with p > sigma[0] loses its descent at position 1
        name="census-block-without-the-position-1-descent",
        file="src/quasischur/hall_littlewood.py",
        old="            lookup = [m + 1 for m in ends_p] * p + ends_p * (k - 1 - p)\n",
        new="            lookup = ends_p * (k - 1)\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_hll_column",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[1,1,1]",
        ),
    ),
    Mutant(
        # p - 1 sits after p in every tail p.sigma', and the recursion forgets it
        name="tail-shift-without-the-bit-p-minus-1",
        file="src/quasischur/hall_littlewood.py",
        old="        shifts.append([x & low | bit | x >> p << (p + 1) for x in patterns])\n",
        new="        shifts.append([x & low | x >> p << (p + 1) for x in patterns])\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_tail_table_reads_permutations[2]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[1,1,1]",
        ),
    ),
    Mutant(
        name="census-maj-weight-one-too-high",
        file="src/quasischur/hall_littlewood.py",
        old="            weights.append(sum(1 for part in mu if part > j) - r - 1)\n",
        new="            weights.append(sum(1 for part in mu if part > j) - r)\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_reads_each_word_as_maj_stat_and_pides[2,1]",
            "tests/test_cli.py::TestRecordedDigests::test_stdout_matches_recorded_sha256",
        ),
    ),
    Mutant(
        # every coefficient lands one descent position too high
        name="mask-of-composition-shifted-by-one-bit",
        file="src/quasischur/combinatorics.py",
        old="    return sum(1 << (point - 1) for point in accumulate(alpha[:-1]))\n",
        new="    return sum(1 << point for point in accumulate(alpha[:-1]))\n",
        test_ids=(
            "tests/test_combinatorics.py::test_descent_masks_round_trip_in_the_order_of_compositions_of[3]",
            "tests/test_quasisym.py::TestExtract::test_schur_21",
            "tests/test_quasisym.py::TestIsSymmetricExpansion::test_schur_functions_accepted[3]",
        ),
    ),
    Mutant(
        name="class-map-drops-the-sorting-sign",
        file="src/quasischur/polynomial.py",
        old="        _accumulate(classes, key, coeff * sign)\n",
        new="        _accumulate(classes, key, coeff)\n",
        test_ids=(
            "tests/test_polynomial.py::TestClassMap::test_sorting_sign",
            "tests/test_polynomial.py::TestClassMap::test_expands_to_antisymmetrize[3]",
            "tests/test_elw.py::TestVerify::test_paper_case_2_3_3",
        ),
    ),
    Mutant(
        # a vector with a repeated entry has a zero alternant
        name="class-map-keeps-a-repeated-entry",
        file="src/quasischur/polynomial.py",
        old="        if len(set(exps)) != len(exps):\n            continue\n",
        new="",
        test_ids=(
            "tests/test_polynomial.py::TestClassMap::test_repeated_exponents_vanish",
            "tests/test_polynomial.py::TestClassMap::test_expands_to_antisymmetrize[3]",
            "tests/test_elw.py::TestVerify::test_paper_case_2_3_3",
        ),
    ),
    Mutant(
        # a row of two or more cells over another keeps its increasing
        # order, so the walk makes fillings with inversions
        name="walk-row-left-unforced",
        file="src/quasischur/hall_littlewood.py",
        old="            row = _force_row(rows[-1], block) if rows else block\n",
        new="            row = block\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_matches_reference_walk[2,2]",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_census_and_inversion_free[4]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[3,2]",
        ),
    ),
    Mutant(
        # the second row keeps its increasing order; the rows above it are
        # still forced over the row below
        name="walk-only-the-second-row-unforced",
        file="src/quasischur/hall_littlewood.py",
        old="            row = _force_row(rows[-1], block) if rows else block\n",
        new="            row = _force_row(rows[-1], block) if len(rows) > 1 else block\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_matches_reference_walk[2,2]",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_matches_reference_walk[3,2]",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_census_and_inversion_free[4]",
        ),
    ),
    Mutant(
        # the first block of each level, and so its whole subtree, is walked
        # twice
        name="walk-duplicates-a-subtree",
        file="src/quasischur/hall_littlewood.py",
        old="        for block in combinations(free, length):\n",
        new="        for block in [*combinations(free, length), *list(combinations(free, length))[:1]]:\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_333_count",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_row_shape",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_census_and_inversion_free[2]",
        ),
    ),
    Mutant(
        # one Schur-positive shape is enough for "all_positive": true
        name="positivity-aggregate-with-or",
        file="src/quasischur/cli.py",
        old="        all_positive = all_positive and positive\n",
        new="        all_positive = all_positive or positive\n",
        test_ids=(
            "tests/test_cli.py::TestPositivity::test_one_shape_not_positive",
        ),
    ),
    Mutant(
        # the zero polynomial exceeds --max-n 0
        name="zero-polynomial-degree-one",
        file="src/quasischur/polynomial.py",
        old="        return max(map(sum, self._terms), default=0)\n",
        new="        return max(map(sum, self._terms), default=1)\n",
        test_ids=(
            "tests/test_cli.py::TestFexpand::test_zero_polynomial_is_degree_zero[no-terms]",
            "tests/test_cli.py::TestFexpand::test_zero_polynomial_is_degree_zero[terms-cancel]",
        ),
    ),
    Mutant(
        # int() reads digit separators and non-ASCII digits as numbers
        name="integer-rule-falls-back-to-int",
        file="src/quasischur/cli.py",
        old=(
            '    if re.fullmatch(r"[+-]?[0-9]+", text.strip()) is None:\n'
            '        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")\n'
            "    return int(text)\n"
        ),
        new=(
            "    try:\n"
            "        return int(text)\n"
            "    except ValueError:\n"
            '        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")\n'
        ),
        test_ids=(
            "tests/test_cli.py::TestIntegerRule::test_refused[straighten-wide-and-arabic-digits]",
            "tests/test_cli.py::TestIntegerRule::test_refused[max-n-separator]",
            "tests/test_cli.py::TestIntegerRule::test_refused[positivity-arabic-digit]",
            "tests/test_cli.py::TestIntegerRule::test_refused[environment-wide-digit]",
        ),
    ),
    Mutant(
        # a function that neither the command line nor a demo calls
        name="unreached-function-added",
        file="src/quasischur/combinatorics.py",
        old="    return -1 if (len(perm) - cycles) % 2 else 1\n",
        new=(
            "    return -1 if (len(perm) - cycles) % 2 else 1\n"
            "\n"
            "\n"
            "def _unreached():\n"
            "    pass\n"
        ),
        test_ids=("tests/test_reach.py::test_every_function_is_reached_or_allowlisted",),
    ),
    Mutant(
        # the same difference, taken through the allowlisted QT.__rsub__,
        # which the allowlist then names although it is reached
        name="allowlisted-function-reached",
        file="src/quasischur/quasisym.py",
        old="    combine = QT.__add__ if sign > 0 else QT.__sub__\n",
        new="    combine = QT.__add__ if sign > 0 else lambda a, b: b.__rsub__(a)\n",
        test_ids=("tests/test_reach.py::test_every_function_is_reached_or_allowlisted",),
    ),
)
