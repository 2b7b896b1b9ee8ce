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
        old="        counts[normal_of(mask).sign] += sum(majs.values())\n",
        new="        counts[abs(normal_of(mask).sign)] += sum(majs.values())\n",
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
        old="        if normal.sign > 0 and rsk_shape(word) == normal.shape:\n",
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
        old=(
            "        _composition_of_mask(mask, n): "
            "QT_ZERO._wrap({(0, maj): count for maj, count in majs.items()})\n"
        ),
        new=(
            "        _composition_of_mask(mask, n): "
            "QT_ZERO._wrap({(maj, 0): count for maj, count in majs.items()})\n"
        ),
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
        old="                q_tally[q_maj + (k if b > k_row else 0)] += count\n",
        new="                q_tally[q_maj] += count\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[5]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1,1]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1,1]",
        ),
    ),
    Mutant(
        # the descent bit of a free pair i, i + 1 lands on the pair above it
        name="census-free-pair-bit-shifted",
        file="src/quasischur/hall_littlewood.py",
        old="        bit = 1 << (s - 1) if free[a + 1] == s + 1 else 0\n",
        new="        bit = 1 << s if free[a + 1] == s + 1 else 0\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1,1]",
        ),
    ),
    Mutant(
        # a tableau Q loses its descent at position 1 from maj(Q), and with
        # it every tail whose first two letters descend
        name="census-block-without-the-position-1-descent",
        file="src/quasischur/hall_littlewood.py",
        old="        majs += [m + a + 1 for m in majs]\n",
        new="        majs += [m + a + 1 if a else m for m in majs]\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[3]",
            "tests/test_hall_littlewood.py::TestCocharge::test_matches_hll_expansion[3]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[1,1,1]",
        ),
    ),
    Mutant(
        # the box is the one that inserting r + 1/2 adds, so a last letter
        # equal to r adds no junction term
        name="tail-shift-without-the-bit-p-minus-1",
        file="src/quasischur/hall_littlewood.py",
        old="            value, base = r, i * k\n",
        new="            value, base = r + 1, i * k\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_tail_counts_count_permutations[2]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[5]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1,1]",
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
        # a tail's last letter over a smaller c adds no maj to the kept tally
        name="schensted-junction-term-dropped",
        file="src/quasischur/hall_littlewood.py",
        old="                majs[lower + q_maj + (k if c_row > k_row else 0)] += count\n",
        new="                majs[lower + q_maj] += count\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[4]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1,1,1]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_empty_discrepancy_up_to_six[6]",
        ),
    ),
    Mutant(
        # every Q counts as if k sat in the top row
        name="q-table-keyed-without-the-row-of-k",
        file="src/quasischur/hall_littlewood.py",
        old="            q_counts[majs[x], word[k - 1] if k else 0] += 1\n",
        new="            q_counts[majs[x], 0] += 1\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestStandardTableaux::test_q_counts_place_k_at_each_corner[2]",
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[5]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1,1,1]",
        ),
    ),
    Mutant(
        # every plus-class tableau P is kept, whatever the shape of P <- L
        name="schensted-kept-without-the-shape-test",
        file="src/quasischur/hall_littlewood.py",
        old="            if tuple(map(len, p)) != normal.shape:\n                continue\n",
        new="",
        test_ids=(
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[4]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[1,1,1,1,1]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_empty_discrepancy_up_to_six[5]",
        ),
    ),
    Mutant(
        # the tableau of L.pi in place of pi.L: L first, then P's reading word
        name="lower-word-inserted-before-the-tail",
        file="src/quasischur/hall_littlewood.py",
        old=(
            "            p = [relabelled[start:end] for start, end in bounds]\n"
            "            c_row = _row_insert(p, lower_word[0]) if lower_word else -1\n"
            "            for value in lower_word[1:]:\n"
            "                _row_insert(p, value)\n"
        ),
        new=(
            "            p = []\n"
            "            c_row = _row_insert(p, lower_word[0]) if lower_word else -1\n"
            "            for value in lower_word[1:]:\n"
            "                _row_insert(p, value)\n"
            "            for start, end in reversed(bounds):\n"
            "                for value in relabelled[start:end]:\n"
            "                    _row_insert(p, value)\n"
        ),
        test_ids=(
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[5]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1,1,1]",
        ),
    ),
    Mutant(
        # i + 1 in the same row as i reads as a descent
        name="tableau-descent-read-as-weakly-lower",
        file="src/quasischur/hall_littlewood.py",
        old="        masks[a + 1] = masks[a] | (1 << (a - 1) if a and r > word[a - 1] else 0)\n",
        new="        masks[a + 1] = masks[a] | (1 << (a - 1) if a and r >= word[a - 1] else 0)\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestStandardTableaux::test_each_is_a_standard_tableau_with_its_descents[2]",
            "tests/test_hall_littlewood.py::TestStandardTableaux::test_q_counts_follow_the_q_hook_formula[2]",
            "tests/test_elw.py::TestReplacementTheorem::test_every_schur_function_is_fixed[2]",
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[4]",
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
        old="        for pick, rest in splits:\n",
        new="        for pick, rest in [*splits, *splits[:1]]:\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_333_count",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_row_shape",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_census_and_inversion_free[2]",
        ),
    ),
    Mutant(
        # every lower part reads the table of r = k, as if there were no
        # lower row: the junction term is never added
        name="tail-counts-keyed-without-r",
        file="src/quasischur/hall_littlewood.py",
        old="    xs, ms, counts = _tail_counts(k, r)\n",
        new="    xs, ms, counts = _tail_counts(k, k)\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[5]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1,1]",
            "tests/test_hall_littlewood.py::TestLeftoverExperiment::test_matches_reference_experiment[2,1,1,1]",
        ),
    ),
    Mutant(
        # the junction adds k - 1, the weight of the position below it
        name="tail-counts-junction-weight-k-minus-1",
        file="src/quasischur/hall_littlewood.py",
        old="                q_tally[q_maj + (k if b > k_row else 0)] += count\n",
        new="                q_tally[q_maj + (k - 1 if b > k_row else 0)] += count\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_tail_counts_count_permutations[3]",
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[5]",
            "tests/test_hall_littlewood.py::TestCocharge::test_matches_hll_expansion[5]",
        ),
    ),
    Mutant(
        # the drain stops one word short of the chunk, and expects to
        name="census-drain-one-word-short",
        file="src/quasischur/hall_littlewood.py",
        old="    rest = factorial(k) - 1  # the words of a chunk after its first\n",
        new="    rest = factorial(k) - 2  # the words of a chunk after its first\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestExpansions::test_census_matches_reference_census[5]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[2,1,1,1]",
            "tests/test_bench_hooks.py::test_leftover_experiment_reads_its_words_from_the_module_global",
        ),
    ),
    Mutant(
        # the rest of a split loses the last free value
        name="walk-split-drops-the-last-free-value",
        file="src/quasischur/hall_littlewood.py",
        old="        (_picker(chosen), _picker([i for i in positions if i not in chosen]))\n",
        new="        (_picker(chosen), _picker([i for i in positions[:-1] if i not in chosen]))\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_matches_reference_walk[2,2]",
            "tests/test_hall_littlewood.py::TestInvZeroFillings::test_census_and_inversion_free[4]",
            "tests/test_hall_littlewood.py::TestExpansions::test_matches_reference_filling_sum[3,2]",
        ),
    ),
    Mutant(
        # the descent of a + 1 in a standard tableau lands on bit a, the
        # point a + 2
        name="tableau-descent-bit-shifted-by-one",
        file="src/quasischur/hall_littlewood.py",
        old="        masks[a + 1] = masks[a] | (1 << (a - 1) if a and r > word[a - 1] else 0)\n",
        new="        masks[a + 1] = masks[a] | (1 << a if a and r > word[a - 1] else 0)\n",
        test_ids=(
            "tests/test_hall_littlewood.py::TestStandardTableaux::test_each_is_a_standard_tableau_with_its_descents[3]",
            "tests/test_elw.py::TestReplacementTheorem::test_every_schur_function_is_fixed[3]",
            "tests/test_hall_littlewood.py::TestSchenstedKept::test_matches_rsk_per_word[4]",
        ),
    ),
    Mutant(
        # every nonzero straightened value is read as +s_shape
        name="straighten-drops-the-sign",
        file="src/quasischur/schur.py",
        old="    return SignedSchur.of(sign, shape)\n",
        new="    return SignedSchur.of(1, shape)\n",
        test_ids=(
            "tests/test_schur.py::TestStraighten::test_signed_example",
            "tests/test_elw.py::TestReplacementTheorem::test_every_schur_function_is_fixed[4]",
            "tests/test_elw.py::TestVerify::test_paper_case_2_3_3",
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
