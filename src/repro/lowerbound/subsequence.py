"""The subsequence extraction of Lemma 4.3.

Given a sequence ``x_1 .. x_n`` with ``x_1 <= x_n`` and adjacent gaps at
most ``d``, and a target gap ``c > d``, the lemma produces a subsequence
``x_{i_1} .. x_{i_m}`` such that

1. ``m <= (x_n - x_1) / (c - d) + 1``, and
2. every consecutive selected pair differs by an amount in ``[c - d, c]``.

The Figure 1 construction applies this to the logical clocks along the
B-chain at time ``T_1`` with ``c = I`` (the requested initial skew) and
``d = S`` (the per-hop skew bound): consecutive selected nodes then carry
skew in ``[I - S, I]``, and connecting them with new edges yields at most
``G(n)/(I - S)`` edges each loaded with ~``I`` initial skew.

Implemented exactly as the inductive construction in the paper's proof.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["select_subsequence"]


def select_subsequence(xs: Sequence[float], c: float, d: float) -> list[int]:
    """Return the selected *indices* ``[i_1, ..., i_m]`` of Lemma 4.3.

    Preconditions (validated): ``len(xs) >= 2``, ``xs[0] <= xs[-1]``,
    ``|xs[i+1] - xs[i]| <= d`` for all ``i``, and ``c > d > 0``.

    The construction: ``i_1 = 0``; given ``i_j``,

    ``i_{j+1} = min({n-1} | {l : i_j < l < n-1, x_l - x_{i_j} >= c - d,
    x_l <= x_{n-1}})``

    and the returned sequence stops at the last index strictly before
    ``n - 1`` (``m = max{j : i_j < n-1}``).
    """
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two elements")
    if xs[0] > xs[-1]:
        raise ValueError("requires xs[0] <= xs[-1]")
    if not (c > d > 0.0):
        raise ValueError(f"need c > d > 0; got c={c!r}, d={d!r}")
    for i in range(n - 1):
        if abs(xs[i + 1] - xs[i]) > d + 1e-12:
            raise ValueError(
                f"adjacent gap |xs[{i + 1}] - xs[{i}]| = "
                f"{abs(xs[i + 1] - xs[i])!r} exceeds d={d!r}"
            )
    selected = [0]
    while True:
        ij = selected[-1]
        nxt = n - 1
        for ell in range(ij + 1, n - 1):
            if xs[ell] - xs[ij] >= c - d and xs[ell] <= xs[n - 1]:
                nxt = ell
                break
        if nxt == n - 1:
            break
        selected.append(nxt)
    return selected
