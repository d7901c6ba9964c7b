"""Tests of the loop-enumeration oracle.

``_reference_walk`` is the earlier per-loop fold, kept here as the
reference: every block looked up through ``gamma.block`` and every product
formed again for each loop. ``_reference_loop_trace`` folds all of a loop's
arrows that way and takes ``np.trace``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_block_diagonal_model, random_model, scalar_pair_model

from infodensity import (
    CombinatorialLimit,
    DirectedLoop,
    compute_gamma,
    enumerate_loops,
    loop_trace,
    rooted_loop_count,
    trace_via_loops,
    two_block_trace,
    validate_model,
)
from infodensity import loops as loops_module
from infodensity._linalg import rel_close

EQUI3 = validate_model(None, np.full((3, 3), 0.5) + 0.5 * np.eye(3), [1, 1, 1])


def _reference_walk(loop, gamma, arrows):
    """Product of the blocks along the loop's first ``arrows`` arrows, the last one leftmost."""
    nodes = loop.nodes
    l = len(nodes)
    product = None
    for i in range(arrows):
        weight = gamma.block(nodes[(i + 1) % l], nodes[i])
        product = weight if product is None else weight @ product
    return product


def _reference_loop_trace(loop, gamma):
    return float(np.trace(_reference_walk(loop, gamma, loop.length)))


def _closing_and_walk(loop, gamma):
    """``loop_trace``'s arguments for a loop: the block back to the root, and the walk before it."""
    return gamma.block(loop.nodes[0], loop.nodes[-1]), _reference_walk(loop, gamma, loop.length - 1)


def _count_loop_trace(monkeypatch):
    calls = [0]
    original = loops_module.loop_trace

    def counted(closing, walk):
        calls[0] += 1
        return original(closing, walk)

    monkeypatch.setattr(loops_module, "loop_trace", counted)
    return calls


class TestDirectedLoop:
    def test_rejects_self_connection(self):
        with pytest.raises(ValueError):
            DirectedLoop((0, 0, 1))

    def test_rejects_closing_self_connection(self):
        with pytest.raises(ValueError):
            DirectedLoop((0, 1, 0))  # closing arrow 0 -> 0

    def test_rejects_single_arrow(self):
        with pytest.raises(ValueError):
            DirectedLoop((0,))

    @pytest.mark.parametrize("nodes", [(0, 1.5), (0.5, 1), (0, -1), (-2, 0, 1), (0, "1"), (0, float("nan")), (0, None)])
    def test_rejects_non_integral_or_negative_nodes(self, nodes):
        with pytest.raises(ValueError):
            DirectedLoop(nodes)

    def test_integral_nodes_normalized(self):
        assert DirectedLoop((np.int64(0), 1.0, 2)).nodes == (0, 1, 2)


class TestEnumerateLoops:
    def test_two_nodes_odd_length_empty(self):
        assert enumerate_loops(2, 3) == []
        assert enumerate_loops(2, 5) == []

    def test_length_one_empty(self):
        for n in (2, 3, 5):
            assert enumerate_loops(n, 1) == []

    def test_four_nodes_three_arrows(self):
        loops = enumerate_loops(4, 3)
        assert len(loops) == 24

    @pytest.mark.parametrize("n_blocks", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_count_matches_closed_form(self, n_blocks, length):
        loops = enumerate_loops(n_blocks, length)
        ones = np.ones((n_blocks, n_blocks)) - np.eye(n_blocks)
        expected = round(np.trace(np.linalg.matrix_power(ones, length)))
        assert len(loops) == expected == rooted_loop_count(n_blocks, length)

    def test_deterministic_lexicographic_order(self):
        first = [loop.nodes for loop in enumerate_loops(4, 4)]
        second = [loop.nodes for loop in enumerate_loops(4, 4)]
        assert first == second == sorted(first)

    def test_cap_enforced_before_enumeration(self):
        with pytest.raises(CombinatorialLimit) as exc:
            enumerate_loops(5, 6, cap=100)
        assert exc.value.count == rooted_loop_count(5, 6)
        assert exc.value.cap == 100
        assert exc.value.length == 6


class TestLoopTrace:
    def test_block_diagonal_weights_vanish(self):
        model = random_block_diagonal_model(np.random.default_rng(1), [1, 2, 1])
        gamma = compute_gamma(model)
        for loop in enumerate_loops(3, 3):
            assert loop_trace(*_closing_and_walk(loop, gamma)) == 0.0

    def test_back_and_forth_pair(self):
        gamma = compute_gamma(scalar_pair_model(0.5))
        assert loop_trace(*_closing_and_walk(DirectedLoop((0, 1)), gamma)) == pytest.approx(0.25, abs=1e-15)

    def test_triangle_on_equicorrelation(self):
        gamma = compute_gamma(EQUI3)
        assert loop_trace(*_closing_and_walk(DirectedLoop((0, 1, 2)), gamma)) == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_fold(self, seed):
        rng = np.random.default_rng(400 + seed)
        n_blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        gamma = compute_gamma(random_model(rng, d=sum(sizes), sizes=sizes))
        for l in (2, 3, 4):
            for loop in enumerate_loops(n_blocks, l):
                reference = _reference_loop_trace(loop, gamma)
                assert abs(loop_trace(*_closing_and_walk(loop, gamma)) - reference) <= 1e-12 * max(1.0, abs(reference))

    def test_rejects_closing_block_of_wrong_shape(self):
        gamma = compute_gamma(random_model(np.random.default_rng(5), d=5, sizes=[2, 3]))
        with pytest.raises(ValueError):
            loop_trace(gamma.block(0, 1), gamma.block(0, 1))


class TestTraceViaLoops:
    def test_length_one_is_zero(self):
        gamma = compute_gamma(random_model(np.random.default_rng(2)))
        assert trace_via_loops(gamma, 1) == 0.0

    def test_equicorrelation_third_power(self):
        gamma = compute_gamma(EQUI3)
        assert trace_via_loops(gamma, 3) == pytest.approx(0.75, abs=1e-12)

    def test_two_block_fourth_power(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, d=5, sizes=[2, 3])
        gamma = compute_gamma(model)
        assert rel_close(trace_via_loops(gamma, 4), two_block_trace(model, 4), 1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_matrix_powers(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_blocks = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        gamma = compute_gamma(model)
        for l in range(1, 7):
            reference = float(np.trace(np.linalg.matrix_power(gamma.matrix, l)))
            assert rel_close(trace_via_loops(gamma, l), reference, 1e-9)

    def test_two_block_odd_sums_exactly_zero(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, d=6, sizes=[3, 3])
        gamma = compute_gamma(model)
        for l in (3, 5):
            assert trace_via_loops(gamma, l) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fsum_of_reference_terms(self, seed):
        rng = np.random.default_rng(500 + seed)
        n_blocks = int(rng.integers(2, 7))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        gamma = compute_gamma(random_model(rng, d=sum(sizes), sizes=sizes))
        for l in range(1, 7):
            reference = math.fsum(_reference_loop_trace(loop, gamma) for loop in enumerate_loops(n_blocks, l))
            assert rel_close(trace_via_loops(gamma, l), reference, 1e-12)


class TestStreaming:
    @pytest.mark.parametrize(
        "sizes, length, loops", [([2] * 8, 5, 16_800), ([1, 2], 3, 0), ([2, 3], 5, 0), ([1, 2, 3], 4, 18)]
    )
    def test_one_loop_trace_call_per_rooted_loop(self, monkeypatch, sizes, length, loops):
        gamma = compute_gamma(random_model(np.random.default_rng(6), d=sum(sizes), sizes=sizes))
        calls = _count_loop_trace(monkeypatch)
        trace_via_loops(gamma, length)
        assert calls[0] == loops == rooted_loop_count(len(sizes), length)

    def test_cap_raises_before_any_term(self, monkeypatch):
        gamma = compute_gamma(random_model(np.random.default_rng(8), d=16, sizes=[2] * 8))
        calls = _count_loop_trace(monkeypatch)
        with pytest.raises(CombinatorialLimit) as exc:
            trace_via_loops(gamma, 5, cap=16_799)
        assert exc.value.count == 16_800
        assert calls[0] == 0

    def test_peak_memory_independent_of_loop_count(self):
        gamma = compute_gamma(random_model(np.random.default_rng(9), d=16, sizes=[2] * 8))
        tracemalloc.start()
        try:
            trace_via_loops(gamma, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestPerRootConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_rooted_sums_match_diagonal_blocks(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        gamma = compute_gamma(model)
        for l in (2, 3, 4):
            power = np.linalg.matrix_power(gamma.matrix, l)
            by_root = {n: 0.0 for n in range(n_blocks)}
            for loop in enumerate_loops(n_blocks, l):
                by_root[loop.nodes[0]] += loop_trace(*_closing_and_walk(loop, gamma))
            for n in range(n_blocks):
                sl = model.partition.block_slice(n)
                expected = float(np.trace(power[sl, sl]))
                assert abs(by_root[n] - expected) < 1e-9 * max(1.0, abs(expected))
