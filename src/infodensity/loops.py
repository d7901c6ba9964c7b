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
from typing import Iterator

import numpy as np

from .errors import CombinatorialLimit
from .model import GaussianModel, _add_exactly, _integral_at_least

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
    """Walk products one walk to this length forms: n * sum_{k=1}^{l-2} (n-1)^k on n blocks.

    Each root's depth-first walk (``_loop_terms``) forms one walk product for
    each of its (n-1)^k paths of k arrows, k = 1..l-2, as a row block of the
    one product that extends the path's parent along all its arrows; the walk
    to length l serves every length up to l. With two blocks that is 2 (l-2)
    walks against at most 2 loops a length, so ``_loop_counts`` holds these,
    not only the loop count, to the cap.
    """
    n, depth = n_blocks, max(length - 2, 0)
    if n == 2:
        return 2 * depth
    return n * ((n - 1) ** (depth + 1) - (n - 1)) // (n - 2)


def _loop_terms(gamma: np.ndarray, spans: list[tuple[int, int]], max_length: int) -> Iterator[tuple[int, list[float]]]:
    """Yield (l, loop_trace of loops of length l) for every rooted loop of length 2..max_length, depth-first.

    ``spans`` holds each block's (offset, size) in ``gamma``, whose block
    (n, m) is the weight of the arrow m -> n. Once per call, each node's
    out-arrows, the blocks (q, node) for every q other than node, are stacked
    by rows, so one product ``stacked[node] @ walk`` extends a walk to node
    along every arrow out of it: the children's walks are its contiguous row
    blocks. For each root, the two-arrow closings n -> q -> root are formed
    once, by one product per q for every end n at once, and the root first
    yields its length-2 loops, closed on the identity. A stack entry (depth,
    node, walk) stands for a path of ``depth`` arrows from the root to node
    and holds the product along it; the root's entry, at depth 0, holds
    None, and its children's walks are the rows of ``stacked[root]`` itself.
    A node's product is formed when its entry is popped, once, and every
    loop through the node shares it: the node closes all its children's
    loops, of length depth+3, and yields their traces as one list, then
    pushes its children while depth+3 < max_length. So one walk serves every
    length; the stack holds at most (L-3)(n-1) entries for L = max_length,
    views into one product for each depth 1..L-4, and at most L-2 products
    are alive at once, the one formed last and its predecessor at depth L-3
    among them.
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
        identity = np.eye(size)
        yield 2, [loop_trace(closing, identity) for closing in closings[root]]
        stack = [(0, root, None)] if max_length > 2 else []
        while stack:
            depth, node, walk = stack.pop()
            product = stacked[node] if walk is None else np.dot(stacked[node], walk)
            walks = [(q, product[rows]) for q, rows in children[node]]
            yield depth + 3, [loop_trace(closing, walk) for q, walk in walks for closing in closings[q]]
            if depth + 3 < max_length:
                stack.extend((depth + 1, q, walk) for q, walk in reversed(walks))


def _loop_counts(n_blocks: int, max_length: int) -> list[int]:
    """The rooted loop counts of lengths 1..max_length, checked before any loop work.

    One walk per root serves every length up to max_length: it makes one
    ``loop_trace`` call per loop and forms ``_walk_products(n_blocks,
    max_length)`` walk products. Each length is held to ``DEFAULT_LOOP_CAP``
    by its own rooted loops and by the walk products one walk to it forms.
    Both grow with the length (two blocks have 0 or 2 loops at every
    length), so max_length's decide: either one past the cap raises
    CombinatorialLimit for max_length. A count that would pass 64 bits
    (max_length * log2(n-1) > 63) is refused unformed, with ``count`` None
    and its order of magnitude in the message. max_length is read by the
    package's integral rule.
    """
    max_length = _integral_at_least(max_length, 1, "the longest loop length")
    if n_blocks > 2 and max_length * math.log2(n_blocks - 1) > 63:
        digits = math.floor(max_length * math.log10(n_blocks - 1))
        message = f"about 10^{digits} rooted loops of length {max_length} exceed cap {DEFAULT_LOOP_CAP}"
        raise CombinatorialLimit(count=None, cap=DEFAULT_LOOP_CAP, length=max_length, message=message)
    loops, walks = rooted_loop_count(n_blocks, max_length), _walk_products(n_blocks, max_length)
    for count, what in ((loops, "rooted loops"), (walks, "walk products for loops")):
        if count > DEFAULT_LOOP_CAP:
            message = f"{count} {what} of length {max_length} exceed cap {DEFAULT_LOOP_CAP}"
            raise CombinatorialLimit(count=count, cap=DEFAULT_LOOP_CAP, length=max_length, message=message)
    return [rooted_loop_count(n_blocks, length) for length in range(1, max_length + 1)]


def trace_via_loops(model: GaussianModel, max_length: int) -> list[float]:
    """[tr(G^l) for l = 1..max_length], each the sum of loop_trace over every rooted loop of length l.

    The loop count of max_length, and the number of walk products one walk
    to it forms, are held to ``DEFAULT_LOOP_CAP`` in closed form
    (``_loop_counts``) before any work: two blocks have at most 2 loops a
    length, but 2 (max_length-2) products. The loops of every length come
    from one depth-first walk per root (``_loop_terms``) that forms each
    prefix product once, all of a node's children's walks in one product
    with its stacked out-arrows, and stops two arrows short of the root;
    each loop is closed by one of the root's two-arrow products, formed once
    per root, and costs one ``loop_trace`` call. In doubles, for d =
    sum(b_i), n blocks and b the root's size, memory beyond G is d^2 -
    sum(b_i^2) for the stacked out-arrows, (n-1) d b for one root's closings
    and (max_length-2)(d - min b_i) b for the walks, whatever the loop
    count. No power of G is formed. The terms of max_length stream into one
    math.fsum; those of each shorter length are folded, a node's at a time,
    into the few floats of their exact sum by the package's exact-sum rule
    (``model._add_exactly``, which holds at most 64 floats before it
    compacts), and one math.fsum sums those at the end. math.fsum is
    correctly rounded, so each length's sum is its loops' terms' exact sum
    rounded once, bit for bit the last entry of a call that stops at that
    length. tr(G) is 0 (no loops
    of length 1 exist, matching the exact-zero trace). The length is read
    by the package's integral rule.
    """
    max_length = _integral_at_least(max_length, 1, "length")
    if max_length == 1:
        return [0.0]
    _loop_counts(model.partition.n_blocks, max_length)
    spans = list(zip(model.partition.offsets, model.partition.block_sizes))
    # held[l - 1] holds the exact-sum parts of the terms of length l < max_length.
    held = [[] for _ in range(max_length - 1)]

    def longest():
        for length, terms in _loop_terms(model.gamma, spans, max_length):
            if length == max_length:
                yield terms
            else:
                held[length - 1] = _add_exactly(held[length - 1], terms)

    last = math.fsum(itertools.chain.from_iterable(longest()))
    return [math.fsum(terms) for terms in held] + [last]
