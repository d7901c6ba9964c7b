"""Loop-sum oracle for tr(G^l), the power sums of the coupling spectrum.

On the complete digraph over the blocks (an arrow m -> n for every ordered
pair of distinct blocks, weighted by the regression block of n on m),
tr(G^l) equals the sum over all rooted directed l-loops of the trace of the
ordered product of the weights along the loop. Summing over the loops gives a
check on the eigenvalue path, the sum of lambda^l over G's spectrum, that
shares no linear algebra with it beyond the regression blocks themselves.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CombinatorialLimit
from .model import GaussianModel, _integral_at_least

DEFAULT_LOOP_CAP = 10_000_000


def rooted_loop_count(n_blocks: int, length: int) -> int:
    """Number of rooted directed loops of the given length on n_blocks nodes.

    Closed form tr[(J - I)^length] = (n-1)^length + (n-1)(-1)^length; zero
    for length 1 since self-connections are excluded. Both arguments are
    read by the package's integral rule; n_blocks < 2 or length < 1 raises
    ValueError.
    """
    n, length = _integral_at_least(n_blocks, 2, "n_blocks"), _integral_at_least(length, 1, "length")
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
    sized by the root block, taken as the dot product of closing.T with walk.
    Any layout gives the same value; a C-ordered walk with a Fortran-ordered
    closing, as ``_loop_terms`` passes them, is read without a copy.
    """
    transposed = closing.T
    if transposed.shape != walk.shape:
        raise ValueError(f"closing block {closing.shape} does not close a walk of shape {walk.shape}")
    return float(np.vdot(transposed, walk))


def _walk_products(n_blocks: int, length: int) -> int:
    """Walk products ``_loop_terms`` forms at this length: n * sum_{k=1}^{l-2} (n-1)^k on n blocks.

    Each root's depth-first walk forms one walk product for each of its
    (n-1)^k paths of k arrows, k = 1..l-2, as a row block of the one product
    that extends the path's parent along all its arrows. With two blocks that
    is 2 (l-2) walks against at most 2 loops, so ``_loop_counts`` holds these,
    not only the loop count, to the cap.
    """
    n, depth = n_blocks, length - 2
    if depth < 1:
        return 0
    if n == 2:
        return 2 * depth
    return n * ((n - 1) ** (depth + 1) - (n - 1)) // (n - 2)


def _loop_terms(gamma: np.ndarray, spans: Sequence[tuple[int, int]], length: int) -> Iterator[list[float]]:
    """Yield loop_trace of every rooted loop of length >= 2 in lists, depth-first in lexicographic node order.

    ``spans`` holds each block's (offset, size) in ``gamma``, whose block
    (n, m) is the weight of the arrow m -> n. Once per call, each node's
    out-arrows, the blocks (q, node) for every q other than node, are stacked
    by rows, so one product ``stacked[node] @ walk`` extends a walk to node
    along every arrow out of it: the children's walks are its contiguous row
    blocks. For each root, the two-arrow closings n -> q -> root are formed
    by one product per q, for every end n at once. A stack entry (depth,
    node, walk) stands for a path of ``depth`` arrows from the root to node
    and holds the product along it; the root's entry, at depth 0, holds
    None, and its children's walks are the rows of ``stacked[root]`` itself.
    A node's product is formed when its entry is popped, once, and every
    loop below the node shares it. The stack holds at most (l-3)(n-1)
    entries, views into one product for each depth 1..l-4; a node at depth
    l-3 closes all its children's loops at once, and yields their traces as
    one list. So at most l-2 products are alive at once, the one formed last
    and its predecessor at depth l-3 among them. At l = 2 each root yields its
    loops, closed on the identity.
    Each loop is still one call ``loop_trace(closing, walk)``, looked up as a
    module global so a wrapper installed on the module sees each call; no
    two loops' closings or walks are summed before their traces are taken.
    Walks are C-ordered and closings Fortran-ordered, so neither operand of
    ``loop_trace`` is copied.
    """
    stacked, children = [], []
    for node, (start, size) in enumerate(spans):
        column = gamma[:, start : start + size]
        stacked.append(np.concatenate((column[:start], column[start + size :])))
        # (q, the rows of block (q, node) in stacked[node]) for every child q.
        rows = []
        for q, (offset, height) in enumerate(spans):
            if q != node:
                offset -= size if q > node else 0
                rows.append((q, slice(offset, offset + height)))
        children.append(rows)
    for root, (start, size) in enumerate(spans):
        # closings[n] lists the products of blocks (root, q) and (q, n), in the order of q.
        # One product for each q forms them for every n: its row block n is n's closing, transposed.
        closings = [[] for _ in spans]
        for q, (offset, height) in enumerate(spans):
            if q != root:
                back = gamma[start : start + size, offset : offset + height]
                through = np.dot(gamma[offset : offset + height].T, back.T)
                for n, (first, width) in enumerate(spans):
                    if n != q:
                        closings[n].append(through[first : first + width].T)
        if length == 2:
            identity = np.eye(size)
            yield [loop_trace(closing, identity) for closing in closings[root]]
            continue
        stack = [(0, root, None)]
        while stack:
            depth, node, walk = stack.pop()
            product = stacked[node] if walk is None else np.dot(stacked[node], walk)
            walks = [(q, product[rows]) for q, rows in children[node]]
            if depth == length - 3:
                yield [loop_trace(closing, walk) for q, walk in walks for closing in closings[q]]
            else:
                stack.extend((depth + 1, q, walk) for q, walk in reversed(walks))


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
    2 (length-2) products. The loops are streamed from a depth-first walk
    (``_loop_terms``) that forms each prefix product once, all of a node's
    children's walks in one product with its stacked out-arrows, and stops
    two arrows short of the root; each loop is closed by one of the root's
    two-arrow products, formed once per root, and costs one ``loop_trace``
    call. In doubles, for d = sum(b_i), n blocks and b the root's size,
    memory beyond G is d^2 - sum(b_i^2) for the stacked out-arrows, (n-1) d b
    for one root's closings and (length-2)(d - min b_i) b for the walks,
    whatever the loop count. G^length is never formed. Each node's terms come
    as one list, and the lists are chained into one math.fsum, which is
    correctly rounded, so the result does not depend on the enumeration
    order. Returns 0 for length 1 (no loops exist, matching the exact-zero
    trace). The length is read by the package's integral rule.
    """
    length = _integral_at_least(length, 1, "length")
    if length == 1:
        return 0.0
    partition = model.partition
    _loop_counts(partition.n_blocks, [length])
    spans = list(zip(partition.offsets, partition.block_sizes))
    return math.fsum(itertools.chain.from_iterable(_loop_terms(model.gamma, spans, length)))
