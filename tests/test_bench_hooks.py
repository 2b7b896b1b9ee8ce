"""What the benchmark harness in bench/ reads from the package.

The tracer counts the items of a generator function only, and checks the
words and fillings it counted against what the CLI reports; the fschur-cli
workload writes its documents from the uncached tableau body, so that the
program's own cache stays cold."""

import inspect

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


def test_schur_ssyt_wraps_the_uncached_tableau_body():
    body = schur.schur_ssyt.__wrapped__
    before = schur.schur_ssyt.cache_info()
    poly = body((2, 1), 3)
    assert schur.schur_ssyt.cache_info() == before
    assert poly == schur.schur_ssyt((2, 1), 3)
    assert poly is not body((2, 1), 3)
