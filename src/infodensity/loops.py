"""Loop-sum oracle for traces of coupling-matrix powers.

On the complete digraph over the blocks (an arrow m -> n for every ordered
pair of distinct blocks, weighted by the regression block of n on m),
tr(G^l) equals the sum over all rooted directed l-loops of the trace of the
ordered product of the weights along the loop. Summing over the loops gives a
check on the matrix-power and eigenvalue paths that shares no linear algebra
with them beyond the regression blocks themselves.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CombinatorialLimit
from .model import GaussianModel, _integral, _integral_at_least

DEFAULT_LOOP_CAP = 10_000_000


def rooted_loop_count(n_blocks: int, length: int) -> int:
    """Number of rooted directed loops of the given length on n_blocks nodes.

    Closed form tr[(J - I)^length] = (n-1)^length + (n-1)(-1)^length; zero
    for length 1 since self-connections are excluded. Arguments must be integral,
    by ``Partition``'s rule for block sizes: 4.0 is 4; 2.5 or True raises ValueError.
    """
    n, length = _integral(n_blocks), _integral(length)
    if n is None or length is None or n < 2 or length < 1:
        raise ValueError("need n_blocks >= 2 and length >= 1")
    return (n - 1) ** length + (n - 1) * (-1) ** length


def loop_trace(closing: np.ndarray, walk: np.ndarray) -> float:
    """Trace of the ordered product of regression blocks along one rooted loop.

    The loop is split at one of its nodes n. ``walk`` is the product of the
    blocks along the arrows from the root to n, the last arrow's block
    leftmost, so it maps the root block to n's; ``closing`` is the product
    along the remaining arrows, from n back to the root, so it maps n's block
    to the root's. ``_loop_terms`` splits every loop at its last-but-one
    node: the closing is a two-arrow product, and at l = 2 the walk is the
    identity. The result is tr(closing @ walk), the trace of a square matrix
    sized by the root block.
    """
    if closing.shape != walk.shape[::-1]:
        raise ValueError(f"closing block {closing.shape} does not close a walk of shape {walk.shape}")
    return float(np.vdot(closing, walk.T))


def _walk_products(n_blocks: int, length: int) -> int:
    """Walk products ``_loop_terms`` forms at this length: n * sum_{k=1}^{l-2} (n-1)^k on n blocks.

    Each root's depth-first walk forms one product for each of its (n-1)^k
    paths of k arrows, k = 1..l-2. With two blocks that is 2 (l-2) products
    against at most 2 loops, so ``_loop_counts`` holds these, not only the
    loop count, to the cap.
    """
    n, depth = n_blocks, length - 2
    if depth < 1:
        return 0
    if n == 2:
        return 2 * depth
    return n * ((n - 1) ** (depth + 1) - (n - 1)) // (n - 2)


def _loop_terms(weights: list[list[np.ndarray]], length: int) -> Iterator[float]:
    """Yield loop_trace of every rooted loop of length >= 2, depth-first in lexicographic node order.

    ``weights[n][m]`` is the weight of the arrow m -> n. For each root, the
    two-arrow closings n -> q -> root, weights[root][q] @ weights[q][n] for
    every q other than n and the root, are formed once for each node n that
    can be a loop's last-but-one node: the root itself at l = 2, every node
    above (the root's closings go unused at l = 3). The depth-first walk
    then stops at depth l-2. A stack entry (depth, node, parent, walk) stands for a path of
    ``depth`` arrows from the root whose last arrow is parent -> node, and
    holds the product along the path up to parent; the root's entry, at
    depth 0, holds the identity. A node's walk is formed when its entry is
    popped, once, and every loop below the node shares it, so the stack
    holds at most l-1 walks and (l-2)(n-1) entries (one at l = 2). Each loop
    is one call ``loop_trace(closing, walk)``, looked up as a module global
    so a wrapper installed on the module sees each call; no two loops'
    closings or walks are summed before their traces are taken.
    """
    n_blocks = len(weights)
    for root in range(n_blocks):
        back = weights[root]
        ends = [root] if length == 2 else range(n_blocks)
        closings = {
            n: [np.dot(back[q], weights[q][n]) for q in range(n_blocks) if q != n and q != root] for n in ends
        }
        # Walks are kept in Fortran order, so the walk.T that loop_trace takes
        # is contiguous and np.vdot reads it without a copy. Products with the
        # identity are exact.
        stack = [(0, root, root, np.eye(back[root].shape[0], order="F"))]
        while stack:
            depth, node, parent, walk = stack.pop()
            if depth:
                walk = np.dot(walk.T, weights[node][parent].T).T
            if depth == length - 2:
                for closing in closings[node]:
                    yield loop_trace(closing, walk)
                continue
            for q in range(n_blocks - 1, -1, -1):
                if q != node:
                    stack.append((depth + 1, q, node, walk))


def _loop_counts(n_blocks: int, lengths: Sequence[int]) -> list[int]:
    """The rooted loop count of each length in ``lengths``, checked before any loop work.

    The first length whose loop count, or the running total of walk products
    (``_walk_products``) over the lengths so far, passes ``DEFAULT_LOOP_CAP``
    raises CombinatorialLimit; a count that would pass 64 bits (length *
    log2(n-1) > 63) is refused unformed, with ``count`` None and its order of
    magnitude in the message. ``trace_via_loops`` passes its one length; the
    CLI's oracle passes 1..L, so a whole run is bounded before its first
    length runs (and stops far below 64 bits).
    """
    counts, walks = [], 0
    for length in lengths:
        if n_blocks > 2 and length * math.log2(n_blocks - 1) > 63:
            digits = math.floor(length * math.log10(n_blocks - 1))
            message = f"about 10^{digits} rooted loops of length {length} exceed cap {DEFAULT_LOOP_CAP}"
            raise CombinatorialLimit(count=None, cap=DEFAULT_LOOP_CAP, length=length, message=message)
        count = rooted_loop_count(n_blocks, length)
        if count > DEFAULT_LOOP_CAP:
            raise CombinatorialLimit(count=count, cap=DEFAULT_LOOP_CAP, length=length)
        walks += _walk_products(n_blocks, length)
        if walks > DEFAULT_LOOP_CAP:
            span = f"length {length}" if length == lengths[0] else f"lengths {lengths[0]}..{length}"
            message = f"{walks} walk products for loop {span} exceed cap {DEFAULT_LOOP_CAP}"
            raise CombinatorialLimit(count=walks, cap=DEFAULT_LOOP_CAP, length=length, message=message)
        counts.append(count)
    return counts


def trace_via_loops(model: GaussianModel, length: int) -> float:
    """tr(G^length) as the sum of loop_trace over every rooted loop.

    The loop count, and then the number of walk products the enumeration
    forms, are held to ``DEFAULT_LOOP_CAP`` in closed form (``_loop_counts``)
    before any work: two blocks have at most 2 loops a length, but
    2 (length-2) products. The loops are streamed from a depth-first walk that
    forms each prefix product once and stops two arrows short of the root;
    each loop is closed by one of the root's two-arrow products, formed once
    per root.
    Beyond one copy of the blocks of G, memory is O(length * b^2) for the
    walks, for the largest block size b, plus the closings of one root, at
    most (n-1)^2 blocks for n blocks: whatever the loop count. G^length is
    never formed. The terms are summed with math.fsum, which is correctly
    rounded, so the result does not depend on the enumeration order. Returns
    0 for length 1 (no loops exist, matching the exact-zero trace). The
    length is integral by ``Partition``'s rule: 4.0 is 4; 2.5 or True (which
    equals 1) raises ValueError.
    """
    length = _integral_at_least(length, 1, "length")
    if length == 1:
        return 0.0
    partition = model.partition
    _loop_counts(partition.n_blocks, [length])
    spans = list(zip(partition.offsets, partition.block_sizes))
    weights = [
        [np.ascontiguousarray(model.gamma[row : row + height, col : col + width]) for col, width in spans]
        for row, height in spans
    ]
    return math.fsum(_loop_terms(weights, length))
