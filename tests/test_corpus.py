import itertools
import time

from siggb.corpus import _monomials_upto, random_ideal


def test_monomials_upto_match_the_product_filter():
    for n in range(6):
        for d in range(5):
            want = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
            assert list(_monomials_upto(n, d)) == want, (n, d)


def test_random_ideal_in_many_variables_is_fast():
    # only the C(n + d, d) monomials are walked, not all (d + 1)^n tuples
    t0 = time.perf_counter()
    gens = random_ideal(2, 1, 40, seed=0)
    assert time.perf_counter() - t0 < 1.0
    assert len(gens) == 2 and gens[0].ring.nvars == 40
