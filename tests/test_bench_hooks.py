"""What the benchmark harness in bench/ reads from the package.

The tracer counts the items of a generator function only, and checks the
words and fillings it counted against what the CLI reports; the fschur-cli
workload writes its documents from the uncached tableau body, so that the
program's own cache stays cold."""

import inspect
from math import factorial

from quasischur import elw, hall_littlewood, schur


def test_counted_enumerators_are_generator_functions():
    assert inspect.isgeneratorfunction(elw.constrained_monomials)
    assert inspect.isgeneratorfunction(hall_littlewood.inv_zero_fillings)


def test_verify_involution_reads_its_words_from_the_module_global(monkeypatch):
    real = elw.constrained_monomials
    items = []

    def counting(alpha):
        for word in real(alpha):
            items.append(word)
            yield word

    monkeypatch.setattr(elw, "constrained_monomials", counting)
    for alpha in [(1,), (2, 1), (2, 2), (2, 3, 3)]:
        items.clear()
        report = elw.verify_involution(alpha)
        assert report.passed(), alpha
        assert len(items) == report.monomial_count > 0, alpha


def test_leftover_experiment_reads_its_words_from_the_module_global(monkeypatch):
    # the traced bench run counts the words of this walk: one walk per shape,
    # multinomial(mu) words, including the tails the census reads off a table
    real = hall_littlewood.inv_zero_fillings
    walks, items = [], []

    def counting(mu):
        walks.append(mu)
        for word in real(mu):
            items.append(word)
            yield word

    monkeypatch.setattr(hall_littlewood, "inv_zero_fillings", counting)
    # one-cell tails of 0, 1, 2, 3 and 5 letters
    for mu in [(2, 2), (2, 1), (2, 2, 1, 1), (3, 1, 1, 1), (1, 1, 1, 1, 1)]:
        walks.clear()
        items.clear()
        report = hall_littlewood.leftover_experiment(mu)
        multinomial = factorial(sum(mu))
        for part in mu:
            multinomial //= factorial(part)
        assert len(walks) == 1, mu
        assert len(items) == report.filling_count == multinomial, mu


def test_schur_ssyt_wraps_the_uncached_tableau_body():
    body = schur.schur_ssyt.__wrapped__
    before = schur.schur_ssyt.cache_info()
    poly = body((2, 1), 3)
    assert schur.schur_ssyt.cache_info() == before
    assert poly == schur.schur_ssyt((2, 1), 3)
    assert poly is not body((2, 1), 3)
