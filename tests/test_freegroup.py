"""Words, Fox derivatives, and the Fox fundamental identity."""

import pytest

from torsionlab.freegroup import Word, fox_derivative

from oracles import GroupRingElement, fundamental_identity_residual


def w(*letters):
    return Word(tuple(letters))


class TestReduction:
    def test_adjacent_cancellation(self):
        assert Word([(1, 1), (1, -1)]).is_empty

    def test_inner_cancellation(self):
        assert Word([(1, 1), (2, 1), (2, -1), (1, 1)]) == w((1, 1), (1, 1))

    def test_already_reduced(self):
        letters = ((1, 1), (2, -1), (1, 1))
        assert Word(letters).letters == letters

    def test_idempotent(self, rng):
        for _ in range(100):
            letters = [(int(rng.integers(1, 5)), int(rng.choice([-1, 1]))) for _ in range(20)]
            once = Word(letters)
            assert Word(once.letters) == once

    def test_cascading(self):
        # x1 x2 x2^-1 x1^-1 collapses completely
        assert Word([(1, 1), (2, 1), (2, -1), (1, -1)]).is_empty

    def test_inverse(self):
        u = w((1, 1), (2, -1))
        assert (u * u.inverse()).is_empty
        assert u.inverse() == w((2, 1), (1, -1))


def random_reduced(rng, n, gens=3):
    return Word(tuple((int(rng.integers(1, gens + 1)), int(rng.choice([-1, 1]))) for _ in range(n)))


class TestProduct:
    """``*`` cancels only at the seam; the reference reduces the whole concatenation."""

    def check(self, u, v):
        got = u * v
        assert got == Word(u.letters + v.letters)
        assert got.letters == Word(u.letters + v.letters).letters

    def test_random_reduced_words(self, rng):
        for _ in range(300):
            self.check(random_reduced(rng, int(rng.integers(0, 30))),
                       random_reduced(rng, int(rng.integers(0, 30)), gens=2))

    def test_empty_word(self, rng):
        u = random_reduced(rng, 12)
        self.check(Word(), u)
        self.check(u, Word())
        self.check(Word(), Word())

    def test_full_cancellation(self, rng):
        for n in (1, 5, 40):
            u = random_reduced(rng, n)
            self.check(u, u.inverse())
            assert (u * u.inverse()).is_empty
            assert (u.inverse() * u).is_empty

    def test_partial_cancellation(self):
        u = w((1, 1), (2, 1), (3, -1))
        v = w((3, 1), (2, -1), (1, 1), (2, 1))
        self.check(u, v)
        assert u * v == w((1, 1), (1, 1), (2, 1))
        # a longer right factor than left factor, cancelling all of the left
        self.check(w((2, 1)), w((2, -1), (1, 1)))
        assert w((2, 1)) * w((2, -1), (1, 1)) == w((1, 1))


class TestFoxDerivative:
    def test_own_generator(self):
        d = fox_derivative(Word.generator(1), 1)
        assert d == {Word(): 1}

    def test_other_generator(self):
        assert fox_derivative(Word.generator(2), 1) == {}

    def test_inverse_letter(self):
        # d(x^-1)/dx = -x^-1, forced by the product rule on x x^-1 = 1
        d = fox_derivative(Word.generator(1, -1), 1)
        assert d == {Word.generator(1, -1): -1}

    def test_trefoil_relator(self):
        # r = x1 x2 x1 x2^-1 x1^-1 x2^-1, hand product-rule expansion
        r = w((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
        d = fox_derivative(r, 1)
        expected = {
            Word(): 1,
            w((1, 1), (2, 1)): 1,
            w((1, 1), (2, 1), (1, 1), (2, -1), (1, -1)): -1,
        }
        assert d == expected
        assert list(d) == list(expected)  # in letter order

    def test_one_unit_term_per_letter(self, rng):
        # each term is a distinct prefix of the word, so none cancels
        for _ in range(200):
            word = random_reduced(rng, int(rng.integers(0, 30)))
            for i in (1, 2, 3):
                d = fox_derivative(word, i)
                assert len(d) == sum(j == i for j, _ in word.letters)
                assert set(d.values()) <= {1, -1}
                assert all(u.letters == word.letters[: len(u)] for u in d)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fox_derivative(Word.generator(1), 0)

    def test_product_rule(self, rng):
        for _ in range(50):
            u = Word(
                [(int(rng.integers(1, 4)), int(rng.choice([-1, 1]))) for _ in range(8)]
            )
            v = Word(
                [(int(rng.integers(1, 4)), int(rng.choice([-1, 1]))) for _ in range(8)]
            )
            for i in (1, 2, 3):
                lhs = fox_derivative(u * v, i)
                rhs = (GroupRingElement(fox_derivative(u, i))
                       + GroupRingElement.of_word(u) * fox_derivative(v, i))
                assert lhs == rhs


class TestFundamentalIdentity:
    def test_single_generator(self):
        assert fundamental_identity_residual(Word.generator(1)).is_zero

    def test_empty_word(self):
        assert fundamental_identity_residual(Word()).is_zero

    def test_random_words_exactly_zero(self, rng):
        # 1000 random words, <= 5 generators, length <= 30, exact integers
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            length = int(rng.integers(0, 31))
            word = Word(
                [(int(rng.integers(1, n + 1)), int(rng.choice([-1, 1]))) for _ in range(length)]
            )
            assert fundamental_identity_residual(word, n).is_zero
