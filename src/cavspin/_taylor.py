"""The package's one Taylor kernel, ``_taylor_pass``, with its block and term rules.

The oracle takes its master equation (in real coordinates) and every
unitary propagator (in complex ones) through the pass, and the moment layer
every read wider than one Taylor table (``moments._exp_action``); the dtype
of the start vector decides.
"""

from __future__ import annotations

import math

import numpy as np

from .params import _positive

#: largest x = rate h of a block of width h that one Taylor series serves
_TAYLOR_BOUND = 8.0

#: most blocks one pass steps, a guard against runaway spans and steps
_MAX_BLOCKS = 10 ** 6


def _taylor_terms(x: float) -> int:
    """The number K of Taylor terms of a block with rate h = x: least K >= 1 with
    x^K/K! <= 1e-18."""
    n_terms, term = 1, x            # term = x^K / K! for K = n_terms
    while term > 1e-18:
        n_terms += 1
        term *= x / n_terms
    return n_terms


def _taylor_rate(stacked, freqs: np.ndarray) -> float:
    """sum_k ||L_k||_1 + max |w_k| of the square L_k side by side in ``stacked``."""
    sums = np.asarray(abs(stacked).sum(axis=0)).reshape(-1, stacked.shape[0])
    return float(sums.max(axis=1).sum() + np.abs(freqs).max())


def _taylor_pass(stacked, freqs: np.ndarray, y: np.ndarray, times: np.ndarray,
                 dt: float | None = None) -> tuple[np.ndarray, int, float]:
    """y at each output time for y' = sum_k e^{i w_k t} L_k y, from y at t = 0.

    ``stacked`` holds the square L_k side by side, [L_0 L_1 ...] (a dense
    array or a CSR matrix), and ``freqs`` their w_k, w_0 = 0.  The dtype of
    y decides the arithmetic: a real y takes a real ``stacked`` in which each
    w_k of k >= 1 stands for a conjugate pair, [L_0 C_1 S_1 C_2 S_2 ...] for
    y' = (L_0 + sum_k cos(w_k t) C_k + sin(w_k t) S_k) y, so y stays real.
    [0, T], T the latest output time, is cut into the fewest equal blocks of
    width h with x = ``_taylor_rate`` h <= ``_TAYLOR_BOUND`` (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488, 2011), and h <= ``dt`` where
    given, a positive number (``_positive``); both, and a count of at most
    ``_MAX_BLOCKS`` blocks (else ``ValueError``), are checked before the
    first block.  Each block starts where the last ended, so the cost grows
    linearly with T and no squaring amplifies rounding where the
    propagator's norm has a hump (Moler & Van Loan, SIAM Rev. 45, 3, 2003).
    On the block from t_0, y is the series sum_n c_n s^n in s = t - t_0 with
    ``_taylor_terms(x)`` terms, each phase expanded exactly about t_0:
    (n + 1) c_{n+1} is one product of ``stacked`` with the stacked
    z_k = e^{i w_k t_0} sum_{m <= n} (i w_k)^m / m! c_{n-m}, for a real y
    with the real and the imaginary part of that phase series, the series
    of cos(w_k t) and sin(w_k t).  An oscillating term divides its product
    by n into its row of the table, and a static term of a dense ``stacked``
    has its product written there; each makes one temporary array.  The
    static row's phase series is [1, 0, 0, ...], so z_0 = c_n is taken as
    it is: only the oscillating rows are convolved, and a static-only model
    makes no convolution product.  The outputs in (t_0, t_0 + h], in any
    order, are read off the block's polynomial in one product; one at
    t <= 0 is y and one at a NaN time is NaN.  Returns
    ``(outputs, n_blocks, h)``, the outputs stacked in the order of
    ``times``.
    """
    dt = None if dt is None else _positive(dt, "dt")
    nan = np.isnan(times)
    span, rate = float(np.max(times, initial=0.0, where=~nan)), _taylor_rate(stacked, freqs)
    n_blocks = 0
    if span > 0.0:
        n_blocks = max(math.ceil(span * rate / _TAYLOR_BOUND),
                       math.ceil(span / dt) if dt else 0, 1)
    if n_blocks > _MAX_BLOCKS:
        raise ValueError(f"a Taylor pass to t={span:g} needs {n_blocks} blocks, "
                         f"more than the {_MAX_BLOCKS} allowed")
    h = span / n_blocks if n_blocks else 0.0
    n_terms = _taylor_terms(rate * h)
    powers = np.arange(n_terms)
    # (i w_k)^m / m!: the Taylor coefficients of e^{i w_k s}
    series = np.cumprod(np.column_stack(
        [np.ones(len(freqs)), np.outer(1j * freqs, 1.0 / powers[1:])]), axis=1)
    # the block that reaches each output: -1 at t <= 0, none at a NaN time
    owner = np.clip(np.ceil(times / h), 0.0, n_blocks) - 1.0 if n_blocks else -np.ones(len(times))
    real = not np.iscomplexobj(y)
    outputs = np.full((len(times),) + y.shape, math.nan if real else complex(math.nan, math.nan))
    outputs[(owner == -1.0) & ~nan] = y
    table = np.empty((n_terms,) + y.shape, dtype=y.dtype)
    flat = table.reshape(n_terms, -1)
    z = np.empty((stacked.shape[1] // stacked.shape[0], flat.shape[1]), dtype=y.dtype)
    oscillating, dense = len(freqs) > 1, isinstance(stacked, np.ndarray)
    for j in range(n_blocks):
        table[0] = y
        if oscillating:
            phased = np.exp(1j * freqs[1:] * (j * h))[:, None] * series[1:]
            if real:        # the series of cos(w_k t) and sin(w_k t), in turn
                phased = np.stack((phased.real, phased.imag), axis=1).reshape(-1, n_terms)
        for n in range(1, n_terms):
            if oscillating:
                z[0] = flat[n - 1]
                np.matmul(phased[:, n - 1::-1], flat[:n], out=z[1:])
                np.divide(stacked @ z.reshape((-1,) + y.shape[1:]), n, out=table[n])
            elif dense:
                np.dot(stacked, table[n - 1] / n, out=table[n])
            else:
                table[n] = stacked @ (table[n - 1] / n)
        reads = np.flatnonzero(owner == j)
        if len(reads):
            clock = (times[reads, None] - j * h) ** powers
            outputs[reads] = (clock @ flat).reshape(reads.shape + y.shape)
        y = (h ** powers @ flat).reshape(y.shape)
    return outputs, n_blocks, h
