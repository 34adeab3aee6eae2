"""Free-group words and Fox free differential calculus.

Words are stored as tuples of signed letters (i, s) with a 1-based
generator index i and s = +1 or -1, always freely reduced.  A Fox
derivative is an element of the integral group ring, held as a plain
dict {Word: int} of its nonzero terms.
"""

from __future__ import annotations


class Word:
    """A freely reduced word in a free group."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def generator(i, sign=1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Word(((i, sign),))

    @property
    def is_empty(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    @staticmethod
    def _of_reduced(letters):
        """A Word from a letter tuple the caller knows to be freely reduced."""
        w = object.__new__(Word)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other):
        # both operands are reduced, so cancellation happens only at the seam
        a, b = self.letters, other.letters
        n, m = len(a), min(len(a), len(b))
        k = 0
        while k < m and a[n - 1 - k][0] == b[k][0] and a[n - 1 - k][1] == -b[k][1]:
            k += 1
        return Word._of_reduced(a[: n - k] + b[k:])

    def inverse(self):
        return Word._of_reduced(tuple((i, -s) for i, s in reversed(self.letters)))

    def exponent_sum(self):
        """The sum of the letters' exponents: the word's image in Z."""
        return sum(s for _, s in self.letters)

    def max_generator(self):
        return max((i for i, _ in self.letters), default=0)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "Word(1)"
        parts = [f"x{i}" if s > 0 else f"x{i}^-1" for i, s in self.letters]
        return "Word(" + " ".join(parts) + ")"


def _reduce(letters):
    """Free reduction by stack cancellation; confluent by construction."""
    stack = []
    for letter in letters:
        i, s = letter
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
        if stack and stack[-1][0] == i and stack[-1][1] == -s:
            stack.pop()
        else:
            # the given tuple, not a copy: a parsed word's letters share the
            # two tuples of each generator, 8 bytes a letter
            stack.append(letter if type(letter) is tuple else (i, s))
    return tuple(stack)


def fox_derivative(w, i):
    """Fox derivative of a word with respect to generator i.

    Defined by d(x_i)/d(x_i) = 1, d(x_j)/d(x_i) = 0 for j != i, and the
    product rule d(uv) = du + u dv applied letter by letter; the inverse
    letter contributes d(x_i^-1) = -x_i^-1.

    Returns {Word: int} in letter order.  Each term is a prefix of the
    reduced word w: the prefix before an x_i, or the prefix ending in an
    x_i^-1.  Two terms could share a prefix only if x_i^-1 x_i occurred in
    w, so every coefficient is +1 or -1 and none cancels.

    The command line does not call this: ``knot_complex`` and ``boundary2``
    read the terms of all generators at once from ``Presentation.fox_terms``.
    It stays as the reference the tests build those terms from, and as a
    layer the benchmark tracer counts.
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    letters = w.letters
    return {
        Word._of_reduced(letters[: k if s > 0 else k + 1]): s
        for k, (j, s) in enumerate(letters)
        if j == i
    }
