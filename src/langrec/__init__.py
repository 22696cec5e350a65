"""Language-detection backends over fixed-dimension embeddings.

Generative two-covariance PLDA with exact scoring, a discriminatively
trained pairwise-score backend, and a hierarchical variant that combines
by-cluster and cluster-conditional scores through prior odds.
"""

from .backend import FlatBackend, GenerativeBackend, fit_generative_backend, init_from_generative
from .clustering import ClusterMap, agglomerate, cluster_priors, plda_distance_matrix
from .dataio import (
    EmbeddingSet,
    TrialSet,
    balance_weights,
    generate_trials,
    load_embeddings,
    per_language_means,
    save_embeddings,
    trial_index,
)
from .hier import HierBackend, combine_llr, init_hier
from .metrics import (
    MetricReport,
    actual_dcf,
    bayes_threshold,
    bootstrap_ci,
    eer,
    evaluate,
    min_dcf,
    subset_trials,
)
from .plda import (
    PairScoreParams,
    PldaModel,
    approx_llr,
    em_train,
    exact_llr,
    pair_score,
    set_log_marginal,
    to_pair_params,
)
from .preproc import AffinePreproc
from .synth import SynthConfig, generate, run_comparison
from .training import TrainConfig, multi_seed_train, sample_batch, train

__version__ = "0.1.0"
