"""Reference quantities that more than one test file reads."""

import math

from cavspin.dicke import effective_coeffs


def coherent_pair_transfer_time(params):
    """Time for full coherent transfer of the first atom pair, pi / (2 V).

    V is the ladder matrix element of the pair-creation term between the
    stretched state and its two-excitation partner.
    """
    co = effective_coeffs(params)
    n = params.n_atoms
    element = abs(co.c_pp) * math.sqrt(n * max(2.0 * n - 2.0, 0.0))
    if element == 0.0:
        raise ValueError("no pair coupling: pair-transfer time undefined")
    return math.pi / (2.0 * element)
