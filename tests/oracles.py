"""Slow, direct routes of shipped computations, kept as differential oracles
for the tests. Nothing in ``src/addext`` imports this module."""

import numpy as np

from addext import analysis


def partial_ap_sum_prefix_max(p: int, coeffs, a: int) -> float:
    """max over all prefixes 1 <= s <= p of |sum_{t<s} e_p(a f(t))|, one
    polynomial and one frequency at a time (the partial-ap suite batches both)."""
    vals = analysis.poly_eval_all(coeffs, p)
    phases = np.exp(2j * np.pi * ((a * vals) % p) / p)
    return float(np.abs(np.cumsum(phases)).max())
