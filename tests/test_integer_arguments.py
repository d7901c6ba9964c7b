"""Every integer argument of the public API is read by one rule, at the boundary that receives it.

4.0 and np.int64(4) are 4. 2.5, True, np.bool_(True), "4", None, nan and
inf raise ValueError (BadPartition, a ValueError, for block sizes), never
TypeError or IndexError, and never read as another integer: True == 1.
"""

import math

import numpy as np
import pytest

from conftest import random_model, scalar_pair_model

from infodensity import (
    BadPartition,
    CumulantSequence,
    HomogeneousModel,
    Partition,
    asymptotic_standardized_limit,
    cumulants,
    homogeneous_cumulant,
    kstat_sampling_variances,
    mc_validate,
    rooted_loop_count,
    sample_density,
    standardized_cumulant,
    trace_via_loops,
    validate_model,
)

PAIR = scalar_pair_model(0.5)
THREE_BLOCKS = random_model(np.random.default_rng(48), d=6, sizes=[1, 2, 3])
HM = HomogeneousModel(10, 0.3)
KAPPAS = CumulantSequence(tuple(float(l) for l in range(1, 9)))

# (argument, call with the argument's value, the error it raises for a value that is not integral).
# 4 is valid for each argument; each call is cheap at 4 (4 draws, order 4, length 4).
ARGUMENTS = [
    ("Partition block size", lambda v: Partition([v, 3]), BadPartition),
    ("Partition.block_slice index", lambda v: Partition([1, 2, 1, 2, 1]).block_slice(v), ValueError),
    ("HomogeneousModel dimension", lambda v: HomogeneousModel(v, 0.1), ValueError),
    ("rooted_loop_count n_blocks", lambda v: rooted_loop_count(v, 3), ValueError),
    ("rooted_loop_count length", lambda v: rooted_loop_count(3, v), ValueError),
    ("cumulants order", lambda v: cumulants(PAIR, v), ValueError),
    ("CumulantSequence.kappa order", lambda v: KAPPAS.kappa(v), ValueError),
    ("homogeneous_cumulant order", lambda v: homogeneous_cumulant(HM, v), ValueError),
    ("standardized_cumulant order", lambda v: standardized_cumulant(HM, v), ValueError),
    ("asymptotic_standardized_limit order", asymptotic_standardized_limit, ValueError),
    ("trace_via_loops length", lambda v: trace_via_loops(THREE_BLOCKS, v), ValueError),
    ("sample_density n", lambda v: sample_density(PAIR, v, 0), ValueError),
    ("sample_density seed", lambda v: sample_density(PAIR, 100, v), ValueError),
    ("sample_density threads", lambda v: sample_density(PAIR, 100, 0, threads=v), ValueError),
    ("mc_validate n", lambda v: mc_validate(PAIR, v, 0), ValueError),
    ("mc_validate seed", lambda v: mc_validate(PAIR, 100, v), ValueError),
    ("mc_validate threads", lambda v: mc_validate(PAIR, 100, 0, threads=v), ValueError),
    ("mc_validate max_order", lambda v: mc_validate(PAIR, 100, 0, max_order=v), ValueError),
    ("mc_validate corrupt_order", lambda v: mc_validate(PAIR, 100, 0, corrupt_order=v), ValueError),
    ("kstat_sampling_variances n", lambda v: kstat_sampling_variances(KAPPAS, v), ValueError),
]
NOT_INTEGRAL = [2.5, True, np.bool_(True), "4", None, math.nan, math.inf]


@pytest.mark.parametrize("call", [case[1] for case in ARGUMENTS], ids=[case[0] for case in ARGUMENTS])
def test_integral_values_of_any_type_read_as_the_integer(call):
    assert call(4.0) == call(np.int64(4)) == call(4)


@pytest.mark.parametrize(
    "call, error, value",
    [
        pytest.param(call, error, value, id=f"{name}-{value!r}")
        for name, call, error in ARGUMENTS
        for value in NOT_INTEGRAL
        # corrupt_order=None is the default: no order is corrupted.
        if not (name == "mc_validate corrupt_order" and value is None)
    ],
)
def test_values_that_are_not_integral_are_refused(call, error, value):
    with pytest.raises(error, match="must be integers" if error is BadPartition else "must be an integer") as exc:
        call(value)
    assert type(exc.value) is error


@pytest.mark.parametrize("sizes", [5, None, 2.0])
def test_non_iterable_block_sizes_are_a_bad_partition(sizes):
    message = f"^block sizes must be a sequence of integers, got {sizes!r}$"
    with pytest.raises(BadPartition, match=message):
        Partition(sizes)
    with pytest.raises(BadPartition, match=message):
        validate_model(None, np.eye(2), sizes)


@pytest.mark.parametrize("index", [-1, 5, 5.0, np.int64(5)])
def test_integral_block_index_out_of_range_is_an_index_error(index):
    with pytest.raises(IndexError, match=f"^block index {int(index)} out of range for 5 blocks$"):
        Partition([1, 2, 1, 2, 1]).block_slice(index)


@pytest.mark.parametrize("order", [-1, 0, 9, 9.0, np.int64(9)])
def test_integral_order_out_of_range_is_an_index_error(order):
    with pytest.raises(IndexError, match=rf"^order {int(order)} outside 1\.\.8$"):
        KAPPAS.kappa(order)
