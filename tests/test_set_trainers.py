"""The set trainers of the logistic, linear-SVM and dense-net classifiers:
every set's model equals its one-set fit bit for bit, whatever the other
sets hold, and a set that fails its checks or its fit fails alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench.classifiers.cv import CvError, stratified_kfold
from augbench.classifiers.dense import DenseNetConfig, fit_dense_net, fit_dense_net_sets
from augbench.classifiers.linear import (
    LinearSvmConfig,
    _SetStack,
    LogisticConfig,
    _fit_linear_svm_stack,
    _fit_logistic_stack,
    fit_linear_svm,
    fit_linear_svm_sets,
    fit_logistic,
    fit_logistic_sets,
)
from augbench.config import ExperimentConfig
from augbench.harness import prepare
from augbench.rng import RngStream
from conftest import REPO, flat_jobs, ref_fit_linear_svm_many, ref_fit_logistic_many

FOLDS = 3

# learner -> (set trainer, one-set fit, config class, stacked trainer, reference epoch)
LINEAR = {
    "logistic": (fit_logistic_sets, fit_logistic, LogisticConfig, _fit_logistic_stack,
                 ref_fit_logistic_many),
    "svm_linear": (fit_linear_svm_sets, fit_linear_svm, LinearSvmConfig, _fit_linear_svm_stack,
                   ref_fit_linear_svm_many),
}


@st.composite
def training_sets(draw):
    """1-4 training sets, often of one shape (12, 13 or 24 rows, both
    classes with at least FOLDS rows, and 1-3 features), and a fit stream
    per set."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([12, 13, 24]), min_size=k, max_size=k))
    widths = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)), ("sets",))
    sets = []
    for i, (n, d) in enumerate(zip(sizes, widths)):
        y = rng.derive(f"y{i}").permutation(np.arange(n) % 2)
        X = rng.derive(f"x{i}").normal(size=(n, d)) + y[:, None]
        sets.append((X, y))
    return sets, [rng.derive(f"fit{i}") for i in range(k)]


def _assert_same_linear(model, alone):
    assert (model.kind, model.reg_lambda, model.threshold) == (
        alone.kind, alone.reg_lambda, alone.threshold)
    assert np.array_equal(model.weights, alone.weights)
    assert model.bias == alone.bias


@settings(max_examples=40, deadline=None)
@given(
    learner=st.sampled_from(sorted(LINEAR)),
    data=training_sets(),
    reg_lambda=st.sampled_from(["auto", 0.1, 1.0]),
    epochs=st.integers(0, 12),
)
def test_linear_set_trainers_equal_one_set_fits(learner, data, reg_lambda, epochs):
    fit_sets, fit_one, config_cls, _, _ = LINEAR[learner]
    sets, rngs = data
    config = config_cls(reg_lambda=reg_lambda, epochs=epochs, cv_folds=FOLDS)
    models = fit_sets(sets, config, rngs)
    assert len(models) == len(sets)
    for model, (X, y), rng in zip(models, sets, rngs):
        alone = fit_one(X, y, config, rng)
        _assert_same_linear(model, alone)
        if reg_lambda == "auto":
            assert model.cv_result == alone.cv_result
        else:
            assert model.cv_result is None


@settings(max_examples=40, deadline=None)
@given(
    learner=st.sampled_from(sorted(LINEAR)),
    data=training_sets(),
    layouts=st.lists(st.tuples(st.booleans(), st.integers(1, 3)), min_size=4, max_size=4),
    epochs=st.integers(0, 12),
)
def test_stacked_trainers_equal_one_set_runs_and_the_reference(learner, data, layouts, epochs):
    # Every set's models in one loop: CV folds x lambdas, or one group of
    # rows with 1-3 lambdas, so one-column sets sit among batched ones.
    # Each set's models are those of its one-set run and, with two columns
    # or more (a matrix product), those of the reference epoch. numpy sends
    # a one-column product to gemv, whose `[X | 1] @ [w; b]` can differ from
    # the reference's `X @ w + b` in the last bit.
    _, _, config_cls, stack, ref = LINEAR[learner]
    sets, rngs = data
    config = config_cls(epochs=epochs)
    stacked = []
    for (X, y), rng, (folds, n_lams) in zip(sets, rngs, layouts):
        lams = list(config.lambda_grid[:n_lams])
        if folds:
            groups = [(tr, lams) for tr, _ in stratified_kfold(y, FOLDS, rng)]
        else:
            groups = [(np.flatnonzero(rng.uniform(0.0, 1.0, size=len(y)) < 0.7), lams)]
        stacked.append((X, y, groups))
    for models, one_set in zip(stack(stacked, config), stacked):
        alone = stack([one_set], config)[0]
        assert len(models) == len(alone)
        for model, a in zip(models, alone):
            _assert_same_linear(model, a)
        X, y, groups = one_set
        if len(models) >= 2:
            for model, r in zip(models, ref(X, y, flat_jobs(groups), config)):
                _assert_same_linear(model, r)


@pytest.mark.parametrize("learner", sorted(LINEAR))
def test_the_fixture_seeds_train_as_one_batch(learner):
    # The four seeds' CV stacks share one shape, so they form one batch;
    # each set's models are still its reference's.
    _, _, config_cls, stack, ref = LINEAR[learner]
    config = config_cls(epochs=25)
    base = ExperimentConfig.from_json(REPO / "configs" / "fixture.json")
    stacked = []
    for seed in range(4):
        data = prepare(replace(base, seed=seed))
        folds = stratified_kfold(data.y_train, 5, RngStream(seed, ("folds",)))
        stacked.append((data.X_train, data.y_train,
                        [(tr, list(config.lambda_grid)) for tr, _ in folds]))
    assert [batch[:4] for batch in _SetStack(stacked).batches] == [[300, 4, 20, 4]]
    for models, (X, y, groups) in zip(stack(stacked, config), stacked):
        for model, r in zip(models, ref(X, y, flat_jobs(groups), config)):
            _assert_same_linear(model, r)


@pytest.mark.parametrize("learner", sorted(LINEAR))
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_lams", [2, 3])
def test_sets_of_one_shape_with_few_columns_train_as_alone(learner, width, n_lams):
    # With one feature, `X.T @ diff` has one row, and numpy's matrix-vector
    # product for two or three columns changes its bits with the stride of
    # its operands: a batch must hand each set its arrays contiguous, as
    # its one-set fit has them.
    _, _, config_cls, stack, _ = LINEAR[learner]
    config = config_cls(epochs=6)
    stacked = []
    for i in range(3):
        rng = RngStream(i, ("one-shape",))
        y = rng.derive("y").permutation(np.arange(24) % 2)
        X = rng.derive("x").normal(size=(24, width)) + y[:, None]
        rows = np.flatnonzero(rng.derive("rows").uniform(0.0, 1.0, size=24) < 0.7)
        stacked.append((X, y, [(rows, list(config.lambda_grid[:n_lams]))]))
    for models, one_set in zip(stack(stacked, config), stacked):
        for model, alone in zip(models, stack([one_set], config)[0]):
            _assert_same_linear(model, alone)


@settings(max_examples=30, deadline=None)
@given(data=training_sets(), epochs=st.integers(0, 15))
def test_dense_set_trainer_equals_one_set_fits(data, epochs):
    sets, rngs = data
    config = DenseNetConfig(hidden=(5, 3), epochs=epochs)
    models = fit_dense_net_sets(sets, config, rngs)
    assert len(models) == len(sets)
    for model, (X, y), rng in zip(models, sets, rngs):
        alone = fit_dense_net(X, y, config, rng)
        assert np.array_equal(model.params.flat, alone.params.flat)
        assert model.loss_history.shape == alone.loss_history.shape == (epochs,)
        assert np.array_equal(model.loss_history, alone.loss_history)


# ----------------------------------------------------------- failing sets

SET_TRAINERS = {
    "logistic": (fit_logistic_sets, fit_logistic, LogisticConfig(epochs=30, cv_folds=FOLDS)),
    "svm_linear": (fit_linear_svm_sets, fit_linear_svm,
                   LinearSvmConfig(epochs=30, cv_folds=FOLDS)),
    "dense": (fit_dense_net_sets, fit_dense_net, DenseNetConfig(hidden=(4, 3), epochs=30)),
}


def _healthy(i, n, d):
    rng = RngStream(i, ("healthy",))
    y = rng.derive("y").permutation(np.arange(n) % 2)
    return rng.derive("x").normal(size=(n, d)) + y[:, None], y


def _assert_same_model(model, alone):
    if hasattr(model, "params"):
        assert np.array_equal(model.params.flat, alone.params.flat)
        assert model.loss_history.shape == alone.loss_history.shape
        assert np.array_equal(model.loss_history, alone.loss_history)
    else:
        _assert_same_linear(model, alone)


@pytest.mark.parametrize("learner", sorted(SET_TRAINERS))
def test_a_set_whose_fit_raises_fails_alone(learner):
    fit_sets, fit_one, config = SET_TRAINERS[learner]
    sets = [_healthy(0, 30, 3), _healthy(1, 24, 3), _healthy(2, 36, 2)]
    X_bad, y_bad = _healthy(3, 30, 3)
    if learner == "dense":
        # A 1e300 column only saturates the net's sigmoid; a NaN fails its
        # loss check.
        X_bad[4, 1] = np.nan
    else:
        X_bad[:, 1] = 1e300  # the joint loop overflows on this set's products
    sets.insert(1, (X_bad, y_bad))
    rngs = [RngStream(k, ("fit",)) for k in range(len(sets))]
    with np.errstate(over="raise", invalid="raise"):
        models = fit_sets(sets, config, rngs)
        with pytest.raises(FloatingPointError) as alone_error:
            fit_one(X_bad, y_bad, config, rngs[1])
        alone = [fit_one(X, y, config, rng) for (X, y), rng in zip(sets, rngs) if X is not X_bad]
    assert isinstance(models[1], FloatingPointError)
    assert str(models[1]) == str(alone_error.value)
    for model, expected in zip(models[:1] + models[2:], alone):
        _assert_same_model(model, expected)


@pytest.mark.parametrize("learner", sorted(SET_TRAINERS))
def test_a_set_that_fails_its_checks_fails_alone(learner):
    fit_sets, fit_one, config = SET_TRAINERS[learner]
    one_class = (np.zeros((8, 3)), np.zeros(8, dtype=int))
    sets = [_healthy(0, 30, 3), one_class, _healthy(1, 24, 3)]
    # Two rows of one class cannot fill FOLDS folds; the dense net has no CV.
    few = (np.ones((6, 3)), np.array([0, 0, 0, 0, 1, 1]))
    sets.append(few)
    rngs = [RngStream(k, ("fit",)) for k in range(len(sets))]
    models = fit_sets(sets, config, rngs)
    assert isinstance(models[1], ValueError)
    assert str(models[1]) == "both classes must be present"
    if learner == "dense":
        _assert_same_model(models[3], fit_one(*few, config, rngs[3]))
    else:
        assert isinstance(models[3], CvError)
    for k in (0, 2):
        _assert_same_model(models[k], fit_one(*sets[k], config, rngs[k]))
