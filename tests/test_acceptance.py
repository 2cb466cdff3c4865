"""Acceptance gate for the benchmark toolkit.

Seven criteria, one test each, with explicit tolerances and runtime
budgets. Each test prints a single PASS line so the suite output doubles
as a checklist. Criterion 6 runs the full 4 x 6 grid over ten seeds on
the bundled fixture and is the slow one (budget: five minutes).
"""

import json
import time

import numpy as np
import pytest

from augbench.classifiers.knn import KnnModel
from augbench.classifiers.linear import LinearSvmConfig, fit_linear_svm, logistic_loss_grad
from augbench.classifiers.svm_rbf import RbfSvmConfig, fit_rbf_svm
from augbench.classifiers import predict_labels
from augbench.gan import discriminator_loss
from augbench.gmm import _e_step, fit_gmm
from augbench.config import ExperimentConfig
from augbench.harness import run_experiment
from augbench.report import render_report_md
from augbench.metrics import accuracy, f1, roc_auc
from augbench.nncore import init_mlp, mlp_backward, mlp_forward
from augbench.rng import RngStream
from augbench.vae import VaeConfig, init_vae, vae_loss
from conftest import FIXTURE_CSV, SCHEMA, central_difference, max_relative_error, with_arrays

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_criterion_1_gradient_oracles():
    """All four analytic gradients match central differences (step 1e-5)."""
    start = time.perf_counter()
    worst = 0.0

    for i in range(20):
        rng = RngStream(100 + i, ("accept-grad",))

        # mlp_backward on a random 2-layer net.
        params = init_mlp([3, 4, 2], ["tanh", "sigmoid"], rng.derive("mlp"))
        x = rng.derive("x").normal(size=(4, 3))
        coeffs = rng.derive("c").normal(size=(4, 2))
        analytic, _ = mlp_backward(params, mlp_forward(params, x), coeffs)
        numeric = central_difference(
            lambda arrs: float(np.sum(coeffs * mlp_forward(with_arrays(params, arrs), x)[-1])),
            params.arrays(),
        )
        worst = max(worst, max_relative_error(analytic, numeric))

        # vae_loss with frozen reparameterization noise.
        vae = init_vae(3, VaeConfig(hidden_size=4, latent_dim=2), rng.derive("vae"))
        batch = rng.derive("vx").normal(size=(4, 3))
        eps = rng.derive("eps").normal(size=(4, 2))
        n_enc = len(vae.encoder.arrays())

        def vae_loss_of(arrs):
            m = init_vae(3, VaeConfig(hidden_size=4, latent_dim=2), rng.derive("vae"))
            m.encoder = with_arrays(m.encoder, arrs[:n_enc])
            m.decoder = with_arrays(m.decoder, arrs[n_enc:])
            return vae_loss(m, batch, eps=eps)[0]

        _, (enc_g, dec_g) = vae_loss(vae, batch, eps=eps)
        numeric = central_difference(vae_loss_of, vae.encoder.arrays() + vae.decoder.arrays())
        worst = max(worst, max_relative_error(enc_g + dec_g, numeric))

        # discriminator_loss.
        disc = init_mlp([3, 4, 1], ["relu", "sigmoid"], rng.derive("disc"))
        real = rng.derive("r").normal(size=(4, 3))
        fake = rng.derive("f").normal(size=(4, 3))
        _, d_grads = discriminator_loss(disc, real, fake)
        numeric = central_difference(
            lambda arrs: discriminator_loss(with_arrays(disc, arrs), real, fake)[0],
            disc.arrays(),
        )
        worst = max(worst, max_relative_error(d_grads, numeric))

        # logistic loss gradient.
        Xl = rng.derive("lx").normal(size=(8, 3))
        yl = (rng.derive("ly").uniform(0, 1, size=8) > 0.5).astype(int)
        w = rng.derive("lw").normal(size=3)
        _, dw, db = logistic_loss_grad(w, 0.1, Xl, yl, 0.05)
        numeric = central_difference(
            lambda arrs: logistic_loss_grad(arrs[0], float(arrs[1][0]), Xl, yl, 0.05)[0],
            [w, np.array([0.1])],
        )
        worst = max(worst, max_relative_error([dw, np.array([db])], numeric))

    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: max grad rel err {worst:.2e} over 20 instances ({elapsed:.1f}s)")


def test_criterion_2_em_monotonicity():
    """100 random datasets: likelihood never drops; responsibilities sum to 1."""
    start = time.perf_counter()
    worst_drop = 0.0
    worst_sum = 0.0
    for i in range(100):
        rng = RngStream(200 + i, ("accept-em",))
        n = int(rng.derive("n").integers(20, 201))
        d = int(rng.derive("d").integers(1, 5))
        k = int(rng.derive("k").integers(1, 4))
        centers = rng.derive("centers").normal(size=(k, d)) * 3.0
        assign = rng.derive("assign").integers(0, k, size=n)
        data = centers[assign] + rng.derive("noise").normal(size=(n, d))

        model = fit_gmm(data, k, rng=rng.derive("fit"))
        ll = np.array(model.log_likelihood_history)
        if len(ll) > 1:
            worst_drop = max(worst_drop, float(-np.min(np.diff(ll))))
        resp, _ = _e_step(data, model)
        worst_sum = max(worst_sum, float(np.max(np.abs(resp.sum(axis=1) - 1.0))))

    elapsed = time.perf_counter() - start
    assert worst_drop <= 1e-8
    assert worst_sum <= 1e-12
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: worst LL drop {worst_drop:.2e}, worst resp sum err "
          f"{worst_sum:.2e} over 100 datasets ({elapsed:.1f}s)")


def test_criterion_3_knn_and_auc_oracles():
    """KNN equals exhaustive scan; trapezoid AUC equals pair counting."""
    start = time.perf_counter()

    for i in range(50):
        rng = RngStream(300 + i, ("accept-knn",))
        n = int(rng.derive("n").integers(10, 60))
        d = int(rng.derive("d").integers(1, 4))
        k = int(rng.derive("k").integers(1, min(n, 9) + 1))
        weighting = ("uniform", "inverse")[i % 2]
        train_X = rng.derive("tr").normal(size=(n, d))
        train_y = (rng.derive("y").uniform(0, 1, size=n) > 0.5).astype(int)
        test_X = rng.derive("te").normal(size=(15, d))

        model = KnnModel(train_X, train_y, k, weighting)
        got = predict_labels(model, test_X)

        expected = []
        for x in test_X:  # exhaustive scan, ties by index
            dist = np.sqrt(np.sum((train_X - x) ** 2, axis=1))
            order = sorted(range(n), key=lambda j: (dist[j], j))[:k]
            labels = train_y[order]
            if weighting == "uniform":
                score = labels.mean()
            else:
                w = 1.0 / (dist[order] + 1e-9)
                score = np.sum(w * labels) / np.sum(w)
            expected.append(int(score >= 0.5))
        np.testing.assert_array_equal(got, expected)

    worst_auc = 0.0
    for i in range(100):
        rng = RngStream(400 + i, ("accept-auc",))
        n = int(rng.derive("n").integers(10, 120))
        y = (rng.derive("y").uniform(0, 1, size=n) > 0.5).astype(int)
        y[:2] = [0, 1]  # both classes present
        scores = rng.derive("s").integers(0, 6, size=n).astype(float)  # heavy ties

        auc = roc_auc(y, scores).auc
        pos, neg = scores[y == 1], scores[y == 0]
        pairs = sum(float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg)) for p in pos)
        oracle = pairs / (len(pos) * len(neg))
        worst_auc = max(worst_auc, abs(auc - oracle))

    elapsed = time.perf_counter() - start
    assert worst_auc <= 1e-12
    assert elapsed < 10.0
    print(f"\nPASS criterion 3: KNN oracle-equal on 50 sets; AUC max dev "
          f"{worst_auc:.1e} on 100 sets ({elapsed:.1f}s)")


def test_criterion_4_svm_correctness():
    """RBF SVM solves XOR with a feasible dual; linear SVM cannot beat 0.75."""
    start = time.perf_counter()

    rbf = fit_rbf_svm(XOR_X, XOR_Y, RbfSvmConfig(C=10.0, gamma=1.0))
    train_acc = accuracy(XOR_Y, predict_labels(rbf, XOR_X))
    assert train_acc == 1.0
    assert np.all(rbf.alphas >= -1e-12) and np.all(rbf.alphas <= 10.0 + 1e-12)
    assert abs(np.sum(rbf.alphas * rbf.train_labels_pm)) < 1e-6

    # Exhaustive linear oracle: sweep all sign patterns a line can realize
    # on the four XOR points (projection order changes at finitely many
    # angles, so a fine angular grid is exhaustive).
    best_linear = 0.0
    for theta in np.linspace(0.0, np.pi, 721):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = XOR_X @ w
        cuts = np.concatenate([[proj.min() - 1.0],
                               (np.sort(proj)[1:] + np.sort(proj)[:-1]) / 2.0,
                               [proj.max() + 1.0]])
        for b in cuts:
            pred = (proj > b).astype(int)
            best_linear = max(best_linear,
                              accuracy(XOR_Y, pred), accuracy(XOR_Y, 1 - pred))
    assert best_linear == 0.75  # no line shatters XOR

    lin = fit_linear_svm(XOR_X, XOR_Y, LinearSvmConfig(reg_lambda=0.01))
    lin_acc = accuracy(XOR_Y, predict_labels(lin, XOR_X))
    assert lin_acc <= 0.75

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 4: RBF XOR acc 1.00 (dual feasible), linear oracle cap "
          f"0.75, fitted linear acc {lin_acc:.2f} ({elapsed:.1f}s)")


def test_criterion_5_byte_identical_runs(tmp_path):
    """Three full CLI runs emit identical artifacts."""
    from augbench.cli import main

    cfg = {
        "dataset": str(FIXTURE_CSV),
        "schema": dict(SCHEMA),
        "seed": 0,
        "test_fraction": 0.25,
        "n_synthetic": 200,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outs = {}
    for name in ("a", "b", "c"):
        outdir = tmp_path / name
        code = main(["run", "--config", str(cfg_path), "--out", str(outdir)])
        assert code == 0
        outs[name] = (
            (outdir / "report.md").read_bytes(),
            (outdir / "results.csv").read_bytes(),
        )
    assert outs["a"] == outs["b"], "sequential reruns differ"
    assert outs["a"] == outs["c"], "third rerun differs"
    print("\nPASS criterion 5: report.md and results.csv byte-identical across "
          "three runs")


def test_criterion_6_paper_shape_reproduction():
    """Full grid over 10 seeds: Table-shaped report, GAN helps the tree."""
    start = time.perf_counter()
    tree_wins = 0
    auc_gains = []
    cfg = ExperimentConfig(
        dataset=str(FIXTURE_CSV), schema=dict(SCHEMA), seed=0,
        test_fraction=0.25, n_synthetic=200,
    )
    bundles = run_experiment(cfg, 10)
    assert [b.config.seed for b in bundles] == list(range(10))
    for bundle in bundles:

        # (a) Table shape: 4 boost rows x 6 classifiers with Acc+F1, plus AUC.
        assert len(bundle.results) == 24
        report = render_report_md(bundle)
        lines = report.splitlines()
        acc_header = next(l for l in lines if "Acc |" in l)
        assert acc_header.count("Acc") == 6 and acc_header.count("F1") == 6
        acc_rows = [l for l in lines if l.startswith("|") and
                    l.split("|")[1].strip() in ("No boost", "GMM", "VAE", "GAN")]
        assert len(acc_rows) == 12  # 4 rows in each of Acc/F1, AUC, train-acc
        assert "## AUC" in report

        # (b) Directional gain for the decision tree under GAN boosting.
        none_tree = bundle.cell("none", "tree")
        gan_tree = bundle.cell("gan", "tree")
        tree_wins += gan_tree.test_acc >= none_tree.test_acc
        auc_gains.append(gan_tree.test_auc - none_tree.test_auc)

        # (c) Metric ranges and purity.
        for r in bundle.results:
            assert not r.failed, f"{r.augmenter}/{r.classifier}: {r.error}"
            for v in (r.test_acc, r.test_f1, r.test_auc, r.train_acc):
                assert 0.0 <= v <= 1.0
        assert not bundle.contamination

    elapsed = time.perf_counter() - start
    mean_gain = float(np.mean(auc_gains))
    assert tree_wins >= 7, f"GAN tree accuracy wins only {tree_wins}/10"
    assert mean_gain > 0.0, f"mean tree AUC gain {mean_gain:+.4f} not positive"
    assert elapsed < 300.0
    print(f"\nPASS criterion 6: grid shape OK x10 seeds; tree acc wins "
          f"{tree_wins}/10; mean tree AUC gain {mean_gain:+.4f} ({elapsed:.0f}s)")


def test_criterion_7_degenerate_metric_convention():
    """A forced all-negative predictor on a 64/36 split: acc 0.64, F1 0.00."""
    y_test = np.array([0] * 64 + [1] * 36)
    predictions = np.zeros(100, dtype=int)
    acc = accuracy(y_test, predictions)
    score = f1(y_test, predictions)
    assert acc == pytest.approx(0.64)
    assert score == 0.0
    print(f"\nPASS criterion 7: all-negative predictor reports acc {acc:.2f}, "
          f"F1 {score:.2f}")
