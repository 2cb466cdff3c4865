from .base import predict_labels
from .cv import CvError, CvResult, cross_validate, stratified_kfold
from .dense import DenseNetConfig, DenseNetModel, fit_dense_net, fit_dense_net_sets
from .knn import KnnConfig, KnnModel, fit_knn
from .linear import (
    LinearModel,
    LinearSvmConfig,
    LogisticConfig,
    fit_linear_svm,
    fit_linear_svm_sets,
    fit_logistic,
    fit_logistic_sets,
)
from .svm_rbf import RbfSvmConfig, RbfSvmModel, fit_rbf_svm
from .tree import DecisionTreeModel, TreeConfig, TreeNode, fit_decision_tree, gini

__all__ = [
    "predict_labels",
    "CvError", "CvResult", "cross_validate", "stratified_kfold",
    "DenseNetConfig", "DenseNetModel", "fit_dense_net", "fit_dense_net_sets",
    "KnnConfig", "KnnModel", "fit_knn",
    "LinearModel", "LinearSvmConfig", "LogisticConfig",
    "fit_linear_svm", "fit_linear_svm_sets", "fit_logistic", "fit_logistic_sets",
    "RbfSvmConfig", "RbfSvmModel", "fit_rbf_svm",
    "DecisionTreeModel", "TreeConfig", "TreeNode", "fit_decision_tree", "gini",
]
