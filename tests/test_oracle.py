import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsattack.errors import BudgetExhaustedError, ShapeMismatchError
from qsattack.oracle import TargetOracle
from testutil import make_model

RNG = np.random.default_rng(7)


def test_empty_query_keeps_counter():
    oracle = TargetOracle(make_model("linear"))
    assert list(oracle.query_labels([])) == []
    assert oracle.query_count == 0


def test_counter_counts_per_epoch():
    oracle = TargetOracle(make_model("linear"))
    oracle.query_labels(RNG.standard_normal((400, 2, 6)))
    assert oracle.query_count == 400


def test_counter_additivity():
    oracle = TargetOracle(make_model("linear"))
    oracle.query_labels(RNG.standard_normal((3, 2, 6)))
    oracle.query_labels(RNG.standard_normal((5, 2, 6)))
    assert oracle.query_count == 8


def test_labels_match_inner_model():
    model = make_model("mlp", seed=3)
    oracle = TargetOracle(model)
    xs = RNG.standard_normal((20, 2, 6))
    assert np.array_equal(oracle.query_labels(xs), model.predict_batch(xs))


def test_budget_is_all_or_nothing():
    oracle = TargetOracle(make_model("linear"), budget=10)
    oracle.query_labels(RNG.standard_normal((6, 2, 6)))
    with pytest.raises(BudgetExhaustedError) as info:
        oracle.query_labels(RNG.standard_normal((5, 2, 6)))
    assert info.value.remaining == 4
    assert oracle.query_count == 6
    assert oracle.remaining == 4
    oracle.query_labels(RNG.standard_normal((4, 2, 6)))
    assert oracle.query_count == 10


@settings(max_examples=100, deadline=None)
@given(budget=st.one_of(st.none(), st.integers(1, 30)), sizes=st.lists(st.integers(0, 12), max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_every_call_is_charged_whole_or_refused_whole(budget, sizes, seed):
    model = make_model("mlp", seed=3)
    oracle = TargetOracle(model, budget=budget)
    rng = np.random.default_rng(seed)
    for size in sizes:
        xs, count, remaining = rng.standard_normal((size, 2, 6)), oracle.query_count, oracle.remaining
        if budget is not None and count + size > budget:
            with pytest.raises(BudgetExhaustedError) as info:
                oracle.query_labels(xs)
            assert info.value.remaining == remaining
            assert (oracle.query_count, oracle.remaining) == (count, remaining)
        else:
            assert np.array_equal(oracle.query_labels(xs), model.predict_batch(xs))
            assert oracle.query_count == count + size


def test_budget_validation():
    with pytest.raises(ValueError):
        TargetOracle(make_model("linear"), budget=0)


@pytest.mark.parametrize("budget", [-1, 2.5, 3.0, True, "3", np.float64(3)], ids=repr)
def test_a_budget_that_is_no_positive_integer_is_refused(budget):
    must = f"^budget must be a positive integer when set, got {re.escape(repr(budget))}$"
    with pytest.raises(ValueError, match=must):
        TargetOracle(make_model("linear"), budget=budget)


def test_a_numpy_budget_is_kept_as_an_int():
    oracle = TargetOracle(make_model("linear"), budget=np.int64(3))
    oracle.query_labels(RNG.standard_normal((2, 2, 6)))
    assert (oracle.budget, oracle.remaining) == (3, 1) and (type(oracle.budget), type(oracle.remaining)) == (int, int)


def test_shape_mismatch_rejected_without_counting():
    oracle = TargetOracle(make_model("linear"), budget=5)
    with pytest.raises(ShapeMismatchError):
        oracle.query_labels(RNG.standard_normal((2, 3, 6)))
    assert oracle.query_count == 0


def test_label_only_surface():
    oracle = TargetOracle(make_model("mlp"))
    public = {name for name in dir(oracle) if not name.startswith("_")}
    assert public == {"query_labels", "query_count", "n_classes", "epoch_shape", "budget", "remaining"}
