"""Tests of the loop-sum oracle.

``_enumerate_loops`` lists every rooted loop as a tuple of block indices by
brute force over all node sequences. ``_reference_walk`` is the earlier
per-loop fold, kept here as the reference: every block sliced from
``model.gamma`` by ``_block`` and every product formed again for each loop.
``_reference_loop_trace`` folds all of a loop's arrows that way and takes
``np.trace``.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    count_loop_trace,
    random_block_diagonal_model,
    random_model,
    rel_close,
    scalar_pair_model,
    two_block_trace,
)

from infodensity import (
    DEFAULT_LOOP_CAP,
    CombinatorialLimit,
    loop_trace,
    rooted_loop_count,
    trace_via_loops,
    validate_model,
)
from infodensity.loops import _loop_counts, _walk_products
from infodensity.model import _exact_parts

EQUI3 = validate_model(None, np.full((3, 3), 0.5) + 0.5 * np.eye(3), [1, 1, 1])


def _enumerate_loops(n_blocks, length):
    """Every rooted loop in lexicographic order: node tuples with no self-arrow, the closing arrow included."""
    return [
        nodes
        for nodes in itertools.product(range(n_blocks), repeat=length)
        if all(a != b for a, b in zip(nodes, nodes[1:] + nodes[:1]))
    ]


def _block(model, m, n):
    """Block (m, n) of the model's coupling matrix: the regression of block m on block n."""
    return model.gamma[model.partition.block_slice(m), model.partition.block_slice(n)]


def _reference_walk(nodes, model, arrows):
    """Product of the blocks along the loop's first ``arrows`` arrows, the last one leftmost."""
    l = len(nodes)
    product = None
    for i in range(arrows):
        weight = _block(model, nodes[(i + 1) % l], nodes[i])
        product = weight if product is None else weight @ product
    return product


def _reference_loop_trace(nodes, model):
    return float(np.trace(_reference_walk(nodes, model, len(nodes))))


def _closing_and_walk(nodes, model):
    """``loop_trace``'s arguments, the loop split at its last node: the block back to the root, and the walk to it."""
    return _block(model, nodes[0], nodes[-1]), _reference_walk(nodes, model, len(nodes) - 1)


def _peak_bound(sizes, length):
    """Bytes ``trace_via_loops`` may hold at once for loops of ``length`` on blocks of ``sizes``.

    In doubles, for d = sum(sizes), n blocks and largest block b: the stacked
    out-arrows, d^2 - sum(b_i^2); one root's closings, n-1 products of d x b;
    and l-2 walk products of at most (d - min(sizes)) x b, one for each depth
    below the root whose walk views the stack holds, plus the last one's
    predecessor at the deepest depth. 64 KB more for the Python objects.
    """
    d, n, b = sum(sizes), len(sizes), max(sizes)
    doubles = d * d - sum(s * s for s in sizes) + (n - 1) * d * b + (length - 2) * (d - min(sizes)) * b
    return 8 * doubles + 64 * 1024


class TestEnumerateLoops:
    def test_two_nodes_odd_length_empty(self):
        assert _enumerate_loops(2, 3) == []
        assert _enumerate_loops(2, 5) == []

    def test_length_one_empty(self):
        for n in (2, 3, 5):
            assert _enumerate_loops(n, 1) == []

    def test_four_nodes_three_arrows(self):
        loops = _enumerate_loops(4, 3)
        assert len(loops) == 24

    @pytest.mark.parametrize("n_blocks", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_count_matches_closed_form(self, n_blocks, length):
        loops = _enumerate_loops(n_blocks, length)
        ones = np.ones((n_blocks, n_blocks)) - np.eye(n_blocks)
        expected = round(np.trace(np.linalg.matrix_power(ones, length)))
        assert len(loops) == expected == rooted_loop_count(n_blocks, length)

    def test_deterministic_lexicographic_order(self):
        first = _enumerate_loops(4, 4)
        second = _enumerate_loops(4, 4)
        assert first == second == sorted(first)

    def test_cap_enforced_before_enumeration(self, monkeypatch):
        # 4^12 + 4 = 16,777,220 loops on 5 scalar blocks at l = 12.
        model = random_model(np.random.default_rng(7), d=5, sizes=[1] * 5)
        calls = count_loop_trace(monkeypatch)
        with pytest.raises(CombinatorialLimit) as exc:
            trace_via_loops(model, 12)
        assert calls[0] == 0
        assert exc.value.count == rooted_loop_count(5, 12) == 16_777_220
        assert exc.value.cap == DEFAULT_LOOP_CAP
        assert exc.value.length == 12


class TestLoopTrace:
    def test_block_diagonal_weights_vanish(self):
        model = random_block_diagonal_model(np.random.default_rng(1), [1, 2, 1])
        for loop in _enumerate_loops(3, 3):
            assert loop_trace(*_closing_and_walk(loop, model)) == 0.0

    def test_back_and_forth_pair(self):
        model = scalar_pair_model(0.5)
        assert loop_trace(*_closing_and_walk((0, 1), model)) == pytest.approx(0.25, abs=1e-15)

    def test_triangle_on_equicorrelation(self):
        assert loop_trace(*_closing_and_walk((0, 1, 2), EQUI3)) == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_fold(self, seed):
        rng = np.random.default_rng(400 + seed)
        n_blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        for l in (2, 3, 4):
            for loop in _enumerate_loops(n_blocks, l):
                reference = _reference_loop_trace(loop, model)
                assert abs(loop_trace(*_closing_and_walk(loop, model)) - reference) <= 1e-12 * max(1.0, abs(reference))

    def test_rejects_closing_block_of_wrong_shape(self):
        model = random_model(np.random.default_rng(5), d=5, sizes=[2, 3])
        with pytest.raises(ValueError):
            loop_trace(_block(model, 0, 1), _block(model, 0, 1))

    def test_value_independent_of_operand_layout(self):
        rng = np.random.default_rng(12)
        closing, walk = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        expected = float(np.trace(closing @ walk))
        # Strided views: every other row and column of arrays twice the size.
        wide_closing, wide_walk = np.zeros((6, 4)), np.zeros((4, 6))
        wide_closing[::2, ::2], wide_walk[::2, ::2] = closing, walk
        for c in (closing, np.asfortranarray(closing), wide_closing[::2, ::2]):
            for w in (walk, np.asfortranarray(walk), wide_walk[::2, ::2]):
                assert abs(loop_trace(c, w) - expected) <= 1e-14 * np.abs(closing.T * walk).sum()

    def test_transposed_walk_refused_with_both_shapes(self):
        closing, walk = np.ones((3, 2)), np.ones((2, 3))
        with pytest.raises(ValueError) as exc:
            loop_trace(closing, walk.T)
        assert str(exc.value) == "closing block (3, 2) does not close a walk of shape (3, 2)"


class TestTraceViaLoops:
    def test_length_one_is_zero(self):
        model = random_model(np.random.default_rng(2))
        assert trace_via_loops(model, 1) == [0.0]

    def test_length_must_be_integral(self):
        assert trace_via_loops(EQUI3, 3.0) == trace_via_loops(EQUI3, np.int64(3)) == trace_via_loops(EQUI3, 3)
        # True == 1, so a bool must be refused before the length-1 shortcut.
        for length in (2.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="length must be an integer"):
                trace_via_loops(EQUI3, length)
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            trace_via_loops(EQUI3, 0)

    def test_equicorrelation_third_power(self):
        assert trace_via_loops(EQUI3, 3)[-1] == pytest.approx(0.75, abs=1e-12)

    def test_two_block_fourth_power(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, d=5, sizes=[2, 3])
        assert rel_close(trace_via_loops(model, 4)[-1], two_block_trace(model, 4), 1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_matrix_powers(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_blocks = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        sums = trace_via_loops(model, 6)
        assert len(sums) == 6
        for l in range(1, 7):
            reference = float(np.trace(np.linalg.matrix_power(model.gamma, l)))
            assert rel_close(sums[l - 1], reference, 1e-9)

    def test_two_block_odd_sums_exactly_zero(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, d=6, sizes=[3, 3])
        sums = trace_via_loops(model, 5)
        assert sums[2] == sums[4] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fsum_of_reference_terms(self, seed):
        rng = np.random.default_rng(500 + seed)
        n_blocks = int(rng.integers(2, 7))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        sums = trace_via_loops(model, 6)
        for l in range(1, 7):
            reference = math.fsum(_reference_loop_trace(loop, model) for loop in _enumerate_loops(n_blocks, l))
            assert rel_close(sums[l - 1], reference, 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_length_has_the_bits_of_its_own_walk(self, seed):
        # One walk to L gives every length's sum the bits a walk to that length alone gives it.
        rng = np.random.default_rng(600 + seed)
        n_blocks = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 5)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        longest = 8 if n_blocks < 5 else 7
        sums = trace_via_loops(model, longest)
        assert len(sums) == longest
        for l in range(1, longest + 1):
            assert sums[l - 1].hex() == trace_via_loops(model, l)[-1].hex()

    def test_exact_parts_hold_the_exact_sum(self):
        # 2^60 + 1 + 2^-60 + 3 * 2^-70 needs three doubles; each part is the rest rounded once.
        parts = _exact_parts([2.0**60, 2.0**-60, 1.0, 3 * 2.0**-70])
        assert parts == [2.0**60, 1.0, 2.0**-60 + 3 * 2.0**-70]
        assert _exact_parts([1.5, -1.5]) == []

    def test_shorter_lengths_summed_exactly(self, monkeypatch):
        # Each term scaled by 2^-60, 1 or 2^60, by its hash: a shorter length's held terms rounded
        # to one float on the way would lose the bits the longest length's single fsum keeps.
        def spread(closing, walk):
            value = loop_trace(closing, walk)
            return math.ldexp(value, 60 * (hash(value) % 3 - 1))

        monkeypatch.setattr("infodensity.loops.loop_trace", spread)
        model = random_model(np.random.default_rng(12), d=7, sizes=[1, 2, 1, 2, 1])
        sums = trace_via_loops(model, 6)
        for l in range(2, 6):
            assert sums[l - 1].hex() == trace_via_loops(model, l)[-1].hex()

    def test_each_node_product_formed_once(self, monkeypatch):
        # On n = 3 blocks to length 6: n (n - 1) = 6 products form the roots' two-arrow closings,
        # and one product per node at depths 1..3 forms its children's walks, n (2 + 4 + 8) = 42
        # (the root's are rows of its stacked out-arrows). A walk per length 3..6 would form 90.
        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def dot(self, a, b):
                products[0] += 1
                return np.dot(a, b)

        products = [0]
        model = random_model(np.random.default_rng(11), d=6, sizes=[1, 2, 3])
        monkeypatch.setattr("infodensity.loops.np", CountingNumpy())
        assert len(trace_via_loops(model, 6)) == 6
        assert products[0] == 6 + 42


class TestStreaming:
    @pytest.mark.parametrize(
        "sizes, length, loops",
        [
            # the benchmark's oracle op: 56 + 336 + 2,408 + 16,800 loops
            ([2] * 8, 5, 19_600),
            ([1, 2], 3, 2),
            ([2, 3], 5, 4),
            ([1, 2, 3], 4, 30),
            # l = 2: every loop closes at the root itself, on the identity walk
            ([1, 3, 2], 2, 6),
            ([2] * 8, 2, 56),
            # unequal blocks: closings and walks of every shape, some walks back at the root
            ([3, 1, 2, 2], 6, 1_092),
        ],
    )
    def test_one_loop_trace_call_per_rooted_loop(self, monkeypatch, sizes, length, loops):
        # One run to ``length`` calls loop_trace once for each rooted loop of every length 1..length.
        model = random_model(np.random.default_rng(6), d=sum(sizes), sizes=sizes)
        calls = count_loop_trace(monkeypatch)
        trace_via_loops(model, length)
        assert calls[0] == loops == sum(rooted_loop_count(len(sizes), l) for l in range(1, length + 1))

    def test_cap_raises_before_any_term(self, monkeypatch):
        # 7^9 - 7 = 40,353,600 loops on 8 blocks of 2 at l = 9.
        model = random_model(np.random.default_rng(8), d=16, sizes=[2] * 8)
        calls = count_loop_trace(monkeypatch)
        with pytest.raises(CombinatorialLimit) as exc:
            trace_via_loops(model, 9)
        assert exc.value.count == 40_353_600
        assert exc.value.cap == DEFAULT_LOOP_CAP
        assert exc.value.length == 9
        assert calls[0] == 0

    def test_long_two_block_length_refused_before_any_term(self, monkeypatch):
        # At most 2 loops a length on two blocks, but 2 (l - 2) = 10,000,002 walk products here.
        model = random_model(np.random.default_rng(10), d=4, sizes=[2, 2])
        calls = count_loop_trace(monkeypatch)
        with pytest.raises(CombinatorialLimit) as exc:
            trace_via_loops(model, 5_000_003)
        assert calls[0] == 0
        assert exc.value.length == 5_000_003
        assert exc.value.count == 10_000_002
        assert exc.value.cap == DEFAULT_LOOP_CAP
        assert "walk products" in str(exc.value)

    def test_each_length_held_to_its_own_walk(self):
        # Two blocks: 2 (l - 2) walk products at length l, formed once for a whole run to l,
        # so a run is held to its longest length's products alone: 2 * 3162 at l = 3164.
        assert _loop_counts(2, 3164) == [rooted_loop_count(2, l) for l in range(1, 3165)]
        assert _walk_products(2, 5_000_002) == DEFAULT_LOOP_CAP
        with pytest.raises(CombinatorialLimit) as exc:
            _loop_counts(2, 5_000_003)
        assert (exc.value.count, exc.value.length, exc.value.cap) == (10_000_002, 5_000_003, DEFAULT_LOOP_CAP)
        assert str(exc.value) == "10000002 walk products for loops of length 5000003 exceed cap 10000000"
        # Three blocks: 2^23 - 2 loops pass at l = 23, but 3 (2^22 - 2) walk products do not.
        with pytest.raises(CombinatorialLimit) as exc:
            _loop_counts(3, 23)
        assert rooted_loop_count(3, 23) < DEFAULT_LOOP_CAP
        assert (exc.value.count, exc.value.length) == (_walk_products(3, 23), 23) == (12_582_906, 23)

    @pytest.mark.parametrize(("n_blocks", "length"), [(4, 9_000), (4, 10_000), (218, 4_000_000)])
    def test_count_past_64_bits_refused_unformed(self, monkeypatch, n_blocks, length):
        def unformed(n_blocks, length):
            raise AssertionError(f"rooted_loop_count({n_blocks}, {length}) formed")

        monkeypatch.setattr("infodensity.loops.rooted_loop_count", unformed)
        model = validate_model(None, np.eye(n_blocks), [1] * n_blocks)
        with pytest.raises(CombinatorialLimit) as exc:
            trace_via_loops(model, length)
        assert exc.value.count is None
        assert (exc.value.cap, exc.value.length) == (DEFAULT_LOOP_CAP, length)
        digits = math.floor(length * math.log10(n_blocks - 1))
        assert str(exc.value) == f"about 10^{digits} rooted loops of length {length} exceed cap 10000000"

    def test_64_bit_boundary(self):
        # On 3 blocks, 2^63 - 2 loops at l = 63 are formed and reported; l = 64 would pass 64 bits.
        with pytest.raises(CombinatorialLimit) as exc:
            _loop_counts(3, 63)
        assert exc.value.count == rooted_loop_count(3, 63) == 2**63 - 2
        with pytest.raises(CombinatorialLimit) as exc:
            _loop_counts(3, 64)
        assert exc.value.count is None
        assert str(exc.value) == "about 10^19 rooted loops of length 64 exceed cap 10000000"

    def test_fewer_than_two_blocks_refused_before_any_logarithm(self):
        for n_blocks in (-1, 0, 1):
            with pytest.raises(ValueError, match=rf"^n_blocks must be >= 2, got {n_blocks}$"):
                _loop_counts(n_blocks, 10**6)

    def test_rooted_loop_count_needs_integral_arguments(self):
        assert rooted_loop_count(4.0, 2) == rooted_loop_count(np.int64(4), 2.0) == 12
        assert type(rooted_loop_count(3.0, 2)) is int
        for value in (2.5, 3.5, True, np.bool_(True), "4", None, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=rf"^n_blocks must be an integer, got {re.escape(repr(value))}$"):
                rooted_loop_count(value, 2)
            with pytest.raises(ValueError, match=rf"^length must be an integer, got {re.escape(repr(value))}$"):
                rooted_loop_count(4, value)
        for n_blocks, length, message in [(1, 2, "n_blocks must be >= 2, got 1"), (3, 0, "length must be >= 1, got 0")]:
            with pytest.raises(ValueError, match=rf"^{message}$"):
                rooted_loop_count(n_blocks, length)

    @pytest.mark.parametrize("n_blocks", [2, 3, 4, 8])
    def test_walk_products_closed_form(self, n_blocks):
        for length in range(1, 12):
            expected = n_blocks * sum((n_blocks - 1) ** k for k in range(1, length - 1))
            assert _walk_products(n_blocks, length) == expected

    def test_peak_memory_independent_of_loop_count(self):
        # 8 blocks of 2: 16,800 loops at l = 5 and 117,656 at l = 6, under one bound.
        # 4 blocks of 50: 48 and 732 loops, held to the oracle's closed form.
        for sizes in ([2] * 8, [50] * 4):
            model = random_model(np.random.default_rng(9), d=sum(sizes), sizes=sizes)
            for length in (5, 6):
                tracemalloc.start()
                try:
                    trace_via_loops(model, length)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < _peak_bound(sizes, length)


class TestPerRootConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_rooted_sums_match_diagonal_blocks(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_blocks = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_blocks)]
        model = random_model(rng, d=sum(sizes), sizes=sizes)
        for l in (2, 3, 4):
            power = np.linalg.matrix_power(model.gamma, l)
            by_root = {n: 0.0 for n in range(n_blocks)}
            for loop in _enumerate_loops(n_blocks, l):
                by_root[loop[0]] += loop_trace(*_closing_and_walk(loop, model))
            for n in range(n_blocks):
                sl = model.partition.block_slice(n)
                expected = float(np.trace(power[sl, sl]))
                assert abs(by_root[n] - expected) < 1e-9 * max(1.0, abs(expected))
