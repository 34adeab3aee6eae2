"""Free-group words and Fox free differential calculus.

A word is a tuple of nonzero ints: the letter x_i is ``i`` and x_i^-1 is
``-i``, so the inverse of a letter k is -k, its generator abs(k) and its
sign that of k.  The parser keeps every word freely reduced.  A Fox
derivative is an element of the integral group ring, held as a plain dict
{word: int} of its nonzero terms.
"""

from __future__ import annotations


def reduce(word):
    """Free reduction by stack cancellation; confluent by construction."""
    stack = []
    for k in word:
        if stack and stack[-1] == -k:
            stack.pop()
        else:
            stack.append(k)
    return tuple(stack)


def inverse(word):
    return tuple(-k for k in reversed(word))


def fox_derivative(w, i):
    """Fox derivative of a reduced word with respect to generator i.

    Defined by d(x_i)/d(x_i) = 1, d(x_j)/d(x_i) = 0 for j != i, and the
    product rule d(uv) = du + u dv applied letter by letter; the inverse
    letter contributes d(x_i^-1) = -x_i^-1.

    Returns {word: int} in letter order.  Each term is a prefix of w: the
    prefix before an x_i, or the prefix ending in an x_i^-1.  Two terms
    could share a prefix only if x_i^-1 x_i occurred in w, so every
    coefficient is +1 or -1 and none cancels.

    The command line does not call this: ``knot_complex`` and ``boundary2``
    read the terms of all relators at once, from ``presentations.fox_table``.
    It stays as the reference the tests build those terms from, and as a
    layer the benchmark tracer counts.
    """
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return {w[: n if k > 0 else n + 1]: 1 if k > 0 else -1 for n, k in enumerate(w) if abs(k) == i}
