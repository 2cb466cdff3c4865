from .base import predict_labels
from .cv import CvError, CvResult, cross_validate, stratified_kfold
from .dense import DenseNetConfig, DenseNetModel, fit_dense_net, fit_dense_net_sets
from .knn import KnnConfig, KnnModel, fit_knn, fit_knn_sets
from .linear import (
    LinearModel,
    LinearSvmConfig,
    LogisticConfig,
    fit_linear_svm,
    fit_linear_svm_sets,
    fit_logistic,
    fit_logistic_sets,
)
from .svm_rbf import RbfSvmConfig, RbfSvmModel, fit_rbf_svm, fit_rbf_svm_sets
from .tree import DecisionTreeModel, Tree, TreeConfig, fit_decision_tree, fit_decision_tree_sets

__all__ = [
    "predict_labels",
    "CvError", "CvResult", "cross_validate", "stratified_kfold",
    "DenseNetConfig", "DenseNetModel", "fit_dense_net", "fit_dense_net_sets",
    "KnnConfig", "KnnModel", "fit_knn", "fit_knn_sets",
    "LinearModel", "LinearSvmConfig", "LogisticConfig",
    "fit_linear_svm", "fit_linear_svm_sets", "fit_logistic", "fit_logistic_sets",
    "RbfSvmConfig", "RbfSvmModel", "fit_rbf_svm", "fit_rbf_svm_sets",
    "DecisionTreeModel", "Tree", "TreeConfig", "fit_decision_tree", "fit_decision_tree_sets",
]
