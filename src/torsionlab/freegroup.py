"""Free-group words, group-ring elements, and Fox free differential calculus.

Words are stored as tuples of signed letters (i, s) with a 1-based
generator index i and s = +1 or -1, always freely reduced.  Group-ring
coefficients are Python complex numbers; for integer inputs (relators,
Fox derivatives) the arithmetic is exact and zero tests are exact.
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
        return Word(tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        out = Word()
        for _ in range(abs(k)):
            out = out * base
        return out

    def exponent_sum(self, i=None):
        """Exponent sum of generator i, or of all letters when i is None."""
        if i is None:
            return sum(s for _, s in self.letters)
        return sum(s for j, s in self.letters if j == i)

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
    for i, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
        if stack and stack[-1][0] == i and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((i, s))
    return tuple(stack)


def word_reduce(letters):
    """Freely reduce a raw (index, sign) letter list into a Word."""
    return Word(tuple(letters))


class GroupRingElement:
    """A finite complex combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = complex(c)
                if c != 0:
                    clean[w] = clean.get(w, 0j) + c
        self.terms = {w: c for w, c in clean.items() if c != 0}

    @staticmethod
    def zero():
        return GroupRingElement()

    @staticmethod
    def of_word(w, coeff=1):
        return GroupRingElement({w: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0j) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                out[w] = out.get(w, 0j) + a * b
        return GroupRingElement(out)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"({c:g})*{w!r}" for w, c in self.terms.items()]
        return " + ".join(parts)


def fox_derivative(w, i):
    """Fox derivative of a word with respect to generator i.

    Defined by d(x_i)/d(x_i) = 1, d(x_j)/d(x_i) = 0 for j != i, and the
    product rule d(uv) = du + u dv applied letter by letter; the inverse
    letter contributes d(x_i^-1) = -x_i^-1.
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    terms = {}
    letters = w.letters
    for k, (j, s) in enumerate(letters):
        if j == i:
            # the prefix before the letter, times x_i^-1 for an inverse
            # letter: both are prefixes of the reduced word w
            term = Word._of_reduced(letters[: k if s > 0 else k + 1])
            terms[term] = terms.get(term, 0) + s
    return GroupRingElement(terms)


def fundamental_identity_residual(w, n_generators=None):
    """Residual of the Fox fundamental identity for a word.

    Returns  sum_i (dw/dx_i) (x_i - 1)  -  (w - 1), which is the zero
    element of the group ring for every word; used as a self-test oracle.
    """
    if n_generators is None:
        n_generators = w.max_generator()
    one = GroupRingElement.of_word(Word())
    acc = GroupRingElement.zero()
    for i in range(1, n_generators + 1):
        xi = GroupRingElement.of_word(Word.generator(i))
        acc = acc + fox_derivative(w, i) * (xi - one)
    return acc - (GroupRingElement.of_word(w) - one)
