"""Similarity-based classification with meta-level model search.

A nearest-neighbor engine whose model space (neighborhood size, distance
function, feature subset, feature weights) is searched automatically by
single-parameter optimization channels, following the meta-learning scheme
of searching the space of similarity-based models level by level.
"""

from .dataset import (CONTINUOUS, SYMBOLIC, DataError, Dataset, FeatureSpec,
                      Partition, encode_symbolic, load_csv, load_monks,
                      load_partition, minmax_rescale, split_rows)
from .distance import (CAMBERRA, CHEBYSHEV, MINKOWSKI, DistanceSpec,
                       cross_matrix, dissimilarity, pairwise_matrix)
from .evaluation import (EvalContext, EvalReport, confusion_of, evaluate,
                         leave_one_out)
from .knn import ModelSpec, Prediction, classify, neighbors, shell_vote
from .metasearch import (CandidateRecord, LevelRecord, ModelSequence,
                         PoolMember, SearchTrace, build_pool,
                         ensemble_predict, evaluate_sequence, meta_search,
                         select_model_sequence)
from .optimize import (ChannelResult, optimize_distance, optimize_k,
                       select_features, weight_search_quantized,
                       weight_search_simplex)
from .reproduce import RowResult, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "CAMBERRA", "CHEBYSHEV", "CONTINUOUS", "MINKOWSKI", "SYMBOLIC",
    "CandidateRecord", "ChannelResult", "DataError", "Dataset",
    "DistanceSpec", "EvalContext", "EvalReport", "FeatureSpec",
    "LevelRecord", "ModelSequence", "ModelSpec", "Partition", "PoolMember",
    "Prediction", "RowResult", "SearchTrace", "SuiteResult", "build_pool",
    "classify", "confusion_of", "cross_matrix", "dissimilarity",
    "encode_symbolic", "ensemble_predict", "evaluate", "evaluate_sequence",
    "leave_one_out", "load_csv", "load_monks", "load_partition",
    "meta_search", "minmax_rescale", "neighbors", "optimize_distance",
    "optimize_k", "pairwise_matrix", "run_suite", "select_features",
    "select_model_sequence", "shell_vote", "split_rows",
    "weight_search_quantized", "weight_search_simplex",
]
