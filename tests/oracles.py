"""Slow, direct routes of shipped computations, kept as differential oracles
for the tests. Nothing in ``src/addext`` imports this module."""

from collections import Counter
from fractions import Fraction

import numpy as np

from addext import analysis


def partial_ap_sum_prefix_max(p: int, coeffs, a: int) -> float:
    """max over all prefixes 1 <= s <= p of |sum_{t<s} e_p(a f(t))|, one
    polynomial and one frequency at a time (the partial-ap suite batches both)."""
    vals = analysis.poly_eval_all(coeffs, p)
    phases = np.exp(2j * np.pi * ((a * vals) % p) / p)
    return float(np.abs(np.cumsum(phases)).max())


def differences_by_pairs(X) -> Counter:
    """rep_count(X, g) for every g in X - X, from all |X|^2 differences by
    Group.sub (the vector-group route that sources.difference_histogram
    replaced)."""
    return Counter(X.group.sub(x, y) for x in X.elements for y in X.elements)


def sym_set_by_pairs(X, alpha: float) -> set:
    """Sym_{1-alpha}(X) from the pairwise difference counts."""
    thresh = (1 - Fraction(alpha)) * len(X)
    return {g for g, c in differences_by_pairs(X).items() if c >= thresh}


def doubling_by_pairs(X) -> int:
    """|X + X| as the set of all |X|^2 sums by Group.add."""
    return len({X.group.add(x, y) for x in X.elements for y in X.elements})
