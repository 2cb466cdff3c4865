"""The set trainers of the logistic, linear-SVM and dense-net classifiers:
every set's model equals its one-set fit bit for bit, whatever the other
sets hold, and each epoch loop takes at most `base.JOINT_ROWS` rows.
Through the harness's `_fit_cells`, a set that fails its checks or its fit
fails alone, for every classifier."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from augbench import harness
from augbench.classifiers import base, dense, linear
from augbench.classifiers.cv import CvError, stratified_kfold
from augbench.classifiers.dense import DenseNetConfig, fit_dense_net, fit_dense_net_sets
from augbench.classifiers.knn import KnnConfig, fit_knn
from augbench.classifiers.linear import (
    LinearModel,
    LinearSvmConfig,
    LogisticConfig,
    _fit_stack,
    _train_linear_svm,
    _train_logistic,
    fit_linear_svm,
    fit_linear_svm_sets,
    fit_logistic,
    fit_logistic_sets,
)
from augbench.classifiers.svm_rbf import RbfSvmConfig, fit_rbf_svm
from augbench.classifiers.tree import TreeConfig, fit_decision_tree
from augbench.config import CLASSIFIER_IDS, ExperimentConfig, module_configs
from augbench.dataio import prepare
from augbench.rng import RngStream
from conftest import REPO, flat_jobs, ref_fit_linear_svm_many, ref_fit_logistic_many

FOLDS = 3

# learner -> (set trainer, one-set fit, config class, epoch rule, reference epoch)
LINEAR = {
    "logistic": (fit_logistic_sets, fit_logistic, LogisticConfig, _train_logistic,
                 ref_fit_logistic_many),
    "svm_linear": (fit_linear_svm_sets, fit_linear_svm, LinearSvmConfig, _train_linear_svm,
                   ref_fit_linear_svm_many),
}


@st.composite
def training_sets(draw):
    """1-4 `(X, y, rng)` training sets, often of one shape (12, 13 or 24
    rows, both classes with at least FOLDS rows, and 1-3 features), each
    with its own fit stream."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([12, 13, 24]), min_size=k, max_size=k))
    widths = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    rng = RngStream(draw(st.integers(0, 2**32 - 1)), ("sets",))
    sets = []
    for i, (n, d) in enumerate(zip(sizes, widths)):
        y = rng.derive(f"y{i}").permutation(np.arange(n) % 2)
        X = rng.derive(f"x{i}").normal(size=(n, d)) + y[:, None]
        sets.append((X, y, rng.derive(f"fit{i}")))
    return sets


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
    config = config_cls(reg_lambda=reg_lambda, epochs=epochs, cv_folds=FOLDS)
    models = fit_sets(data, config)
    assert len(models) == len(data)
    for model, (X, y, rng) in zip(models, data):
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
    _, _, config_cls, train, ref = LINEAR[learner]
    config = config_cls(epochs=epochs)
    stacked = []
    for (X, y, rng), (folds, n_lams) in zip(data, layouts):
        lams = list(config.lambda_grid[:n_lams])
        if folds:
            groups = [(tr, lams) for tr, _ in stratified_kfold(y, FOLDS, rng)]
        else:
            groups = [(np.flatnonzero(rng.uniform(0.0, 1.0, size=len(y)) < 0.7), lams)]
        stacked.append((X, y, groups))
    for models, one_set in zip(_fit_stack(train, stacked, config), stacked):
        alone = _fit_stack(train, [one_set], config)[0]
        assert len(models) == len(alone)
        for model, a in zip(models, alone):
            _assert_same_linear(model, a)
        X, y, groups = one_set
        if len(models) >= 2:
            for model, r in zip(models, ref(X, y, flat_jobs(groups), config)):
                _assert_same_linear(model, r)


def _record_loops(monkeypatch) -> list:
    """Every epoch loop the lockstep trainers run from now on: the (B, n, J)
    of each `_SetStack` the linear trainers build, and the list of its
    sets' rows for each dense-net loop."""
    loops = []

    class Recorded(linear._SetStack):
        def __init__(self, sets):
            super().__init__(sets)
            loops.append(self.mask.shape)

    monkeypatch.setattr(linear, "_SetStack", Recorded)
    monkeypatch.setattr(dense, "_train_stack", lambda sets, config, train=dense._train_stack: (
        loops.append([len(y) for _, y, _ in sets]) or train(sets, config)))
    return loops


@pytest.mark.parametrize("learner", sorted(LINEAR))
def test_the_fixture_seeds_train_as_one_batch(learner, monkeypatch):
    # The four seeds' CV stacks share one shape, so they train as one
    # (4, 300, 20) stack; each set's models are still its reference's.
    _, _, config_cls, train, ref = LINEAR[learner]
    config = config_cls(epochs=25)
    base = ExperimentConfig.from_json(REPO / "configs" / "fixture.json")
    stacked = []
    for seed in range(4):
        data = prepare(replace(base, seed=seed))
        folds = stratified_kfold(data.y_train, 5, RngStream(seed, ("folds",)))
        stacked.append((data.X_train, data.y_train,
                        [(tr, list(config.lambda_grid)) for tr, _ in folds]))
    built = _record_loops(monkeypatch)
    fitted = _fit_stack(train, stacked, config)
    assert built == [(4, 300, 20)]
    for models, (X, y, groups) in zip(fitted, stacked):
        for model, r in zip(models, ref(X, y, flat_jobs(groups), config)):
            _assert_same_linear(model, r)


@pytest.mark.parametrize("learner", sorted(LINEAR))
def test_seed_major_sets_of_alternating_shapes_train_one_stack_per_shape(learner, monkeypatch):
    # A two-seed grid with augmenters none and gmm orders its cells seed by
    # seed: 300, 500, 300 and 500 rows. Each shape's sets train as one
    # stack, for CV (20 columns) and for the refit (1), and every model is
    # its one-set fit's.
    fit_sets, fit_one, config_cls, _, _ = LINEAR[learner]
    config = config_cls(epochs=25)
    base = replace(ExperimentConfig.from_json(REPO / "configs" / "fixture.json"),
                   augmenters=["none", "gmm"])
    sets = []
    for seed in range(2):
        seed_config = replace(base, seed=seed)
        data = prepare(seed_config)
        augmented = harness.build_augmented_sets(
            seed_config, data.X_train, data.y_train, module_configs(seed_config))
        sets += [(*augmented[aug][:2], RngStream(seed, ("cell", aug, learner)))
                 for aug in base.augmenters]
    assert [len(y) for _, y, _ in sets] == [300, 500, 300, 500]
    built = _record_loops(monkeypatch)
    models = fit_sets(sets, config)
    assert built == [(2, 300, 20), (2, 500, 20), (2, 300, 1), (2, 500, 1)]
    for model, (X, y, rng) in zip(models, sets):
        alone = fit_one(X, y, config, rng)
        _assert_same_linear(model, alone)
        assert model.cv_result == alone.cv_result


@pytest.mark.parametrize("learner", sorted(LINEAR))
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_lams", [2, 3])
def test_sets_of_one_shape_with_few_columns_train_as_alone(learner, width, n_lams):
    # With one feature, `X.T @ diff` has one row, and numpy's matrix-vector
    # product for two or three columns changes its bits with the stride of
    # its operands: a batch must hand each set its arrays contiguous, as
    # its one-set fit has them.
    _, _, config_cls, train, _ = LINEAR[learner]
    config = config_cls(epochs=6)
    stacked = []
    for i in range(3):
        rng = RngStream(i, ("one-shape",))
        y = rng.derive("y").permutation(np.arange(24) % 2)
        X = rng.derive("x").normal(size=(24, width)) + y[:, None]
        rows = np.flatnonzero(rng.derive("rows").uniform(0.0, 1.0, size=24) < 0.7)
        stacked.append((X, y, [(rows, list(config.lambda_grid[:n_lams]))]))
    for models, one_set in zip(_fit_stack(train, stacked, config), stacked):
        for model, alone in zip(models, _fit_stack(train, [one_set], config)[0]):
            _assert_same_linear(model, alone)


@settings(max_examples=30, deadline=None)
@given(data=training_sets(), epochs=st.integers(0, 15))
def test_dense_set_trainer_equals_one_set_fits(data, epochs):
    config = DenseNetConfig(hidden=(5, 3), epochs=epochs)
    models = fit_dense_net_sets(data, config)
    assert len(models) == len(data)
    for model, (X, y, rng) in zip(models, data):
        alone = fit_dense_net(X, y, config, rng)
        assert np.array_equal(model.params.flat, alone.params.flat)
        assert model.loss_history.shape == alone.loss_history.shape == (epochs,)
        assert np.array_equal(model.loss_history, alone.loss_history)


# ----------------------------------------------------------- failing sets

# classifier -> (one-set fit, config)
ONE_SET = {
    "tree": (fit_decision_tree, TreeConfig(cv_folds=FOLDS)),
    "knn": (fit_knn, KnnConfig(cv_folds=FOLDS)),
    "logistic": (fit_logistic, LogisticConfig(epochs=30, cv_folds=FOLDS)),
    "svm_rbf": (fit_rbf_svm, RbfSvmConfig(cv_folds=FOLDS)),
    "svm_linear": (fit_linear_svm, LinearSvmConfig(epochs=30, cv_folds=FOLDS)),
    "dense": (fit_dense_net, DenseNetConfig(hidden=(4, 3), epochs=30)),
}


def test_every_classifier_has_one_set_trainer():
    assert set(harness._FIT_SETS) == set(ONE_SET) == set(CLASSIFIER_IDS)


def _healthy(i, n, d):
    rng = RngStream(i, ("healthy",))
    y = rng.derive("y").permutation(np.arange(n) % 2)
    return rng.derive("x").normal(size=(n, d)) + y[:, None], y


def _fit_stream(k):
    return RngStream(k, ("fit",))


def _assert_same_model(model, alone, X):
    assert type(model) is type(alone)
    assert model.hyperparams == alone.hyperparams
    assert np.array_equal(model.decision_scores(X), alone.decision_scores(X))
    if hasattr(model, "params"):
        assert np.array_equal(model.params.flat, alone.params.flat)
        assert model.loss_history.shape == alone.loss_history.shape
        assert np.array_equal(model.loss_history, alone.loss_history)
    elif isinstance(model, LinearModel):
        _assert_same_linear(model, alone)


@pytest.mark.parametrize("learner", sorted(ONE_SET))
def test_a_set_whose_fit_raises_fails_alone(learner):
    fit_one, config = ONE_SET[learner]
    sets = [_healthy(0, 30, 3), _healthy(1, 24, 3), _healthy(2, 36, 2)]
    X_bad, y_bad = _healthy(3, 30, 3)
    if learner == "dense":
        # A 1e300 column only saturates the net's sigmoid; a NaN fails its
        # loss check.
        X_bad[4, 1] = np.nan
    elif learner == "tree":
        # The column splits the classes, and its split's midpoint overflows.
        X_bad[:, 1] = 1.6e308 + 1e307 * y_bad
    else:
        X_bad[:, 1] = 1e300  # its squared distances and linear products overflow
    sets.insert(1, (X_bad, y_bad))
    with np.errstate(over="raise", invalid="raise"):
        models = harness._fit_cells(
            learner, [(X, y, _fit_stream(k)) for k, (X, y) in enumerate(sets)], config
        )
        with pytest.raises(FloatingPointError) as alone_error:
            fit_one(X_bad, y_bad, config, _fit_stream(1))
        alone = {k: fit_one(X, y, config, _fit_stream(k))
                 for k, (X, y) in enumerate(sets) if k != 1}
    assert isinstance(models[1], FloatingPointError)
    assert str(models[1]) == str(alone_error.value)
    for k, expected in alone.items():
        _assert_same_model(models[k], expected, sets[k][0])


ONE_CLASS = (np.zeros((8, 3)), np.zeros(8, dtype=int))
NO_ROWS = (np.zeros((0, 3)), np.zeros(0, dtype=int))
# classifier -> (a set that fails its checks, the error's type and message).
# The tree and KNN accept a set of one class; the tree checks nothing before
# its folds.
FAILS_CHECKS = {
    "tree": (NO_ROWS, CvError, f"could not build {FOLDS} stratified folds with both classes"),
    "knn": (NO_ROWS, ValueError, "empty training set"),
    **{learner: (ONE_CLASS, ValueError, "both classes must be present")
       for learner in ("logistic", "svm_rbf", "svm_linear", "dense")},
}


@pytest.mark.parametrize("learner", sorted(ONE_SET))
def test_a_set_that_fails_its_checks_fails_alone(learner):
    fit_one, config = ONE_SET[learner]
    bad, error_type, message = FAILS_CHECKS[learner]
    sets = [_healthy(0, 30, 3), bad, _healthy(1, 24, 3)]
    # Two rows of one class cannot fill FOLDS folds; the dense net has no CV.
    few = (np.ones((6, 3)), np.array([0, 0, 0, 0, 1, 1]))
    sets.append(few)
    models = harness._fit_cells(
        learner, [(X, y, _fit_stream(k)) for k, (X, y) in enumerate(sets)], config
    )
    assert type(models[1]) is error_type
    assert str(models[1]) == message
    if learner == "dense":
        _assert_same_model(models[3], fit_one(*few, config, _fit_stream(3)), few[0])
    else:
        assert isinstance(models[3], CvError)
    for k in (0, 2):
        _assert_same_model(models[k], fit_one(*sets[k], config, _fit_stream(k)), sets[k][0])


def test_a_failing_call_is_retried_cell_by_cell(monkeypatch):
    # (name, labels); the harness makes one call, and after a failing one,
    # one call per cell.
    sets = [("a", [0] * 4), ("b", [0] * 5), ("c", [0] * 12), ("bad", [0] * 3), ("d", [0] * 3)]
    calls = []

    def fit_sets(run, config):
        calls.append([name for name, _ in run])
        if any(name == "bad" for name, _ in run):
            raise ValueError("bad set")
        return [name.upper() for name, _ in run]

    monkeypatch.setitem(harness._FIT_SETS, "fake", fit_sets)
    assert harness._fit_cells("fake", sets[:3], None) == ["A", "B", "C"]
    assert calls == [["a", "b", "c"]]
    calls.clear()
    results = harness._fit_cells("fake", sets, None)
    assert calls == [["a", "b", "c", "bad", "d"], ["a"], ["b"], ["c"], ["bad"], ["d"]]
    assert results[:3] == ["A", "B", "C"] and results[4] == "D"
    assert isinstance(results[3], ValueError) and str(results[3]) == "bad set"


def test_a_direct_call_trains_each_shape_in_runs_within_the_bound(monkeypatch):
    # Three 300-row and three 340-row sets, alternating, under a 700-row
    # bound: each shape trains in a run of two sets and a run of one, and
    # the dense net's one width in three runs of a 300- and a 340-row set.
    monkeypatch.setattr(base, "JOINT_ROWS", 700)
    sets = [(*_healthy(k, n, 3), _fit_stream(k)) for k, n in enumerate([300, 340] * 3)]
    loops = _record_loops(monkeypatch)
    runs = [(2, 300), (1, 300), (2, 340), (1, 340)]
    for learner in ("logistic", "svm_linear", "dense"):
        fit_one, config = ONE_SET[learner]
        loops.clear()
        models = harness._FIT_SETS[learner](sets, config)
        if learner == "dense":
            assert loops == [[300, 340]] * 3
        else:
            J = FOLDS * len(config.lambda_grid)
            assert loops == [(B, n, J) for B, n in runs] + [(B, n, 1) for B, n in runs]
        for model, (X, y, rng) in zip(models, sets):
            _assert_same_model(model, fit_one(X, y, config, rng), X)
