"""Brute-force loop enumeration oracle for traces of coupling-matrix powers.

On the complete digraph over the blocks (an arrow m -> n for every ordered
pair of distinct blocks, weighted by the regression block of n on m),
tr(G^l) equals the sum over all rooted directed l-loops of the trace of the
ordered product of the weights along the loop. Enumerating the loops gives a
check on the matrix-power and eigenvalue paths that shares no linear algebra
with them beyond the regression blocks themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CombinatorialLimit
from .model import GammaMatrix

DEFAULT_LOOP_CAP = 10_000_000


@dataclass(frozen=True)
class DirectedLoop:
    """Rooted directed loop: arrows nodes[i] -> nodes[i+1], closing back to nodes[0].

    Nodes are 0-based block indices, so non-negative integers; consecutive
    nodes are distinct, including the closing step, and the length (number
    of arrows) is >= 2.
    """

    nodes: tuple[int, ...]

    def __post_init__(self):
        try:
            raw = tuple(self.nodes)
            nodes = tuple(int(q) for q in raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"loop nodes must be non-negative integers, got {self.nodes!r}") from None
        if nodes != raw or any(q < 0 for q in nodes):
            raise ValueError(f"loop nodes must be non-negative integers, got {raw}")
        if len(nodes) < 2:
            raise ValueError(f"a loop needs at least 2 arrows, got {len(nodes)}")
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            if a == b:
                raise ValueError(f"self-connection {a} -> {b} in loop {nodes}")
        object.__setattr__(self, "nodes", nodes)

    @property
    def length(self) -> int:
        return len(self.nodes)


def rooted_loop_count(n_blocks: int, length: int) -> int:
    """Number of rooted directed loops of the given length on n_blocks nodes.

    Closed form tr[(J - I)^length] = (n-1)^length + (n-1)(-1)^length; zero
    for length 1 since self-connections are excluded.
    """
    if n_blocks < 2 or length < 1:
        raise ValueError("need n_blocks >= 2 and length >= 1")
    if length == 1:
        return 0
    n = n_blocks
    return (n - 1) ** length + (n - 1) * (-1) ** length


def iter_loops(n_blocks: int, length: int) -> Iterator[DirectedLoop]:
    """Yield every rooted loop once, depth-first in lexicographic node order."""
    if n_blocks < 2 or length < 1:
        raise ValueError("need n_blocks >= 2 and length >= 1")
    if length == 1:
        return
    prefix = [0] * length

    def extend(pos: int) -> Iterator[DirectedLoop]:
        if pos == length:
            if prefix[-1] != prefix[0]:
                yield DirectedLoop(nodes=tuple(prefix))
            return
        for q in range(n_blocks):
            if q == prefix[pos - 1]:
                continue
            prefix[pos] = q
            yield from extend(pos + 1)

    for root in range(n_blocks):
        prefix[0] = root
        yield from extend(1)


def enumerate_loops(n_blocks: int, length: int, cap: int = DEFAULT_LOOP_CAP) -> list[DirectedLoop]:
    """All rooted loops of the given length, or CombinatorialLimit beyond the cap.

    Each cyclic arrow sequence appears once per starting node, matching the
    per-node double sum that reproduces the trace without multiplicity
    corrections. The count is checked against the cap in closed form before
    any enumeration happens.
    """
    count = rooted_loop_count(n_blocks, length)
    if count > cap:
        raise CombinatorialLimit(count=count, cap=cap, length=length)
    return list(iter_loops(n_blocks, length))


def loop_trace(closing: np.ndarray, walk: np.ndarray) -> float:
    """Trace of the ordered product of regression blocks along one rooted loop.

    ``walk`` is the product of the blocks along the loop's first l-1 arrows,
    the last arrow's block leftmost, so it maps the root block to the loop's
    last node; ``closing`` is the block of the arrow from that node back to
    the root. The result is tr(closing @ walk), the trace of a square matrix
    sized by the root block.
    """
    if closing.shape != walk.shape[::-1]:
        raise ValueError(f"closing block {closing.shape} does not close a walk of shape {walk.shape}")
    return float(np.vdot(closing, walk.T))


def _loop_terms(weights: list[list[np.ndarray]], length: int) -> Iterator[float]:
    """Yield loop_trace of every rooted loop, depth-first in lexicographic node order.

    ``weights[n][m]`` is the weight of the arrow m -> n. A stack entry
    (depth, node, parent, parent_walk) stands for a path of ``depth`` arrows
    from the root whose last arrow is parent -> node; ``parent_walk`` is the
    product along the path up to parent. A node's walk is formed when its
    entry is popped, once, and every loop below the node shares it, so the
    stack holds at most l walks and (l-1)(n-1) entries. ``loop_trace`` is
    looked up as a module global for every term, so a wrapper installed on
    the module sees each call.
    """
    n_blocks = len(weights)
    for root in range(n_blocks):
        closing = weights[root]
        identity = np.eye(closing[root].shape[0])  # the root's walk; products with it are exact
        stack = [(1, q, root, identity) for q in range(n_blocks - 1, -1, -1) if q != root]
        while stack:
            depth, node, parent, parent_walk = stack.pop()
            walk = np.dot(weights[node][parent], parent_walk)
            if depth == length - 1:
                yield loop_trace(closing[node], walk)
                continue
            for q in range(n_blocks - 1, -1, -1):
                if q != node and (q != root or depth < length - 2):
                    stack.append((depth + 1, q, node, walk))


def trace_via_loops(gamma: GammaMatrix, length: int, cap: int = DEFAULT_LOOP_CAP) -> float:
    """tr(G^length) as the sum of loop_trace over every rooted loop.

    The loop count is checked against the cap in closed form before any
    work. The loops are streamed from a depth-first walk that forms each
    prefix product once, so beyond one copy of the blocks of G memory is
    O(length * b^2) for the largest block size b, whatever the loop count;
    G^length is never formed. The terms are summed with math.fsum, which is
    correctly rounded, so the result does not depend on the enumeration
    order. Returns 0 for length 1 (no loops exist, matching the exact-zero
    trace).
    """
    if length == 1:
        return 0.0
    partition = gamma.partition
    count = rooted_loop_count(partition.n_blocks, length)
    if count > cap:
        raise CombinatorialLimit(count=count, cap=cap, length=length)
    spans = list(zip(partition.offsets, partition.block_sizes))
    weights = [
        [np.ascontiguousarray(gamma.matrix[row : row + height, col : col + width]) for col, width in spans]
        for row, height in spans
    ]
    return math.fsum(_loop_terms(weights, length))
