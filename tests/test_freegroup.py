"""Words, Fox derivatives, and the Fox fundamental identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.freegroup import fox_derivative, inverse, reduce

from oracles import GroupRingElement, fundamental_identity_residual, product


def random_letters(rng, n, gens=3):
    return tuple(int(rng.integers(1, gens + 1)) * int(rng.choice([-1, 1])) for _ in range(n))


def random_reduced(rng, n, gens=3):
    return reduce(random_letters(rng, n, gens))


class TestReduction:
    def test_adjacent_cancellation(self):
        assert reduce((1, -1)) == ()

    def test_inner_cancellation(self):
        assert reduce((1, 2, -2, 1)) == (1, 1)

    def test_already_reduced(self):
        letters = (1, -2, 1)
        assert reduce(letters) == letters

    def test_idempotent(self, rng):
        for _ in range(100):
            once = reduce(random_letters(rng, 20, gens=4))
            assert reduce(once) == once

    def test_cascading(self):
        # x1 x2 x2^-1 x1^-1 collapses completely
        assert reduce((1, 2, -2, -1)) == ()

    def test_inverse(self):
        u = (1, -2)
        assert reduce(u + inverse(u)) == ()
        assert inverse(u) == (2, -1)


letters = st.lists(st.integers(1, 4).flatmap(lambda i: st.sampled_from([i, -i])), max_size=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(u=letters, v=letters)
def test_reduction_is_idempotent_and_respects_concatenation(u, v):
    u, v = tuple(u), tuple(v)
    assert reduce(reduce(u)) == reduce(u)
    assert reduce(u + v) == reduce(reduce(u) + reduce(v))


class TestProduct:
    """Reducing the concatenation of two reduced words cancels only at the
    seam; the reference (``oracles.product``) runs there alone."""

    def check(self, u, v):
        assert reduce(u + v) == product(u, v)

    def test_random_reduced_words(self, rng):
        for _ in range(300):
            self.check(random_reduced(rng, int(rng.integers(0, 30))),
                       random_reduced(rng, int(rng.integers(0, 30)), gens=2))

    def test_empty_word(self, rng):
        u = random_reduced(rng, 12)
        self.check((), u)
        self.check(u, ())
        self.check((), ())

    def test_full_cancellation(self, rng):
        for n in (1, 5, 40):
            u = random_reduced(rng, n)
            self.check(u, inverse(u))
            assert reduce(u + inverse(u)) == ()
            assert reduce(inverse(u) + u) == ()

    def test_partial_cancellation(self):
        u = (1, 2, -3)
        v = (3, -2, 1, 2)
        self.check(u, v)
        assert reduce(u + v) == (1, 1, 2)
        # a longer right factor than left factor, cancelling all of the left
        self.check((2,), (-2, 1))
        assert reduce((2, -2, 1)) == (1,)


class TestFoxDerivative:
    def test_own_generator(self):
        assert fox_derivative((1,), 1) == {(): 1}

    def test_other_generator(self):
        assert fox_derivative((2,), 1) == {}

    def test_inverse_letter(self):
        # d(x^-1)/dx = -x^-1, forced by the product rule on x x^-1 = 1
        assert fox_derivative((-1,), 1) == {(-1,): -1}

    def test_trefoil_relator(self):
        # r = x1 x2 x1 x2^-1 x1^-1 x2^-1, hand product-rule expansion
        r = (1, 2, 1, -2, -1, -2)
        d = fox_derivative(r, 1)
        expected = {(): 1, (1, 2): 1, (1, 2, 1, -2, -1): -1}
        assert d == expected
        assert list(d) == list(expected)  # in letter order

    def test_one_unit_term_per_letter(self, rng):
        # each term is a distinct prefix of the word, so none cancels
        for _ in range(200):
            word = random_reduced(rng, int(rng.integers(0, 30)))
            for i in (1, 2, 3):
                d = fox_derivative(word, i)
                assert len(d) == sum(abs(k) == i for k in word)
                assert set(d.values()) <= {1, -1}
                assert all(u == word[: len(u)] for u in d)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fox_derivative((1,), 0)

    def test_product_rule(self, rng):
        for _ in range(50):
            u, v = random_reduced(rng, 8), random_reduced(rng, 8)
            for i in (1, 2, 3):
                lhs = fox_derivative(reduce(u + v), i)
                rhs = (GroupRingElement(fox_derivative(u, i))
                       + GroupRingElement.of_word(u) * fox_derivative(v, i))
                assert lhs == rhs


class TestFundamentalIdentity:
    def test_single_generator(self):
        assert fundamental_identity_residual((1,)).is_zero

    def test_empty_word(self):
        assert fundamental_identity_residual(()).is_zero

    def test_random_words_exactly_zero(self, rng):
        # 1000 random words, <= 5 generators, length <= 30, exact integers
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            word = random_reduced(rng, int(rng.integers(0, 31)), gens=n)
            assert fundamental_identity_residual(word, n).is_zero
