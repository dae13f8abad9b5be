"""White-box graph node classification from explicit signal dictionaries.

The pipeline in one breath: build a nine-block propagation dictionary
over the node features, keep the top Fisher-scored coordinates, fit one
PCA subspace per class and a closed-form multi-alpha ridge boundary,
fuse the two standardized score matrices, and read the fitted pieces
back out as node-level atlases and dataset fingerprints.
"""

import os as _os

# BLAS thread cap; must land before numpy initializes its backend.
_threads = _os.environ.get("GRAPHSIG_NUM_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .conventions import EPSILON, PACKAGE_VERSION, STD_MODE, conventions
from .graph import (
    PropagationOperator,
    SparseGraph,
    build_graph,
    load_edge_list,
    propagate,
    row_operator,
    save_edge_list,
    sym_operator,
)
from .dictionary import (
    BLOCK_NAMES,
    BLOCKS,
    FAMILIES,
    BlockId,
    SignalDictionary,
    block_slice,
    build_dictionary,
)
from .fisher import FisherSelection, fisher_scores, restrict, select_top_k
from .subspace import (
    ClassSubspace,
    ClassSVD,
    class_svds,
    fit_class_subspaces,
    pca_residuals,
    truncate_subspaces,
)
from .ridge import RidgeModel, fit_ridge, ridge_scores
from .scaffold import (
    FittedScaffold,
    HyperConfig,
    RepeatOutcome,
    SearchGrids,
    SplitSpec,
    accuracy,
    branch_scores,
    evaluate_repeats,
    fit,
    grid_search,
    make_split,
    predict,
    summarize_repeats,
)
from .atlas import (
    DatasetFingerprint,
    NodeAtlas,
    NodeAtlasRecord,
    QUADRANTS,
    block_shares,
    dataset_fingerprint,
    family_shares,
    emit_figure_data,
    node_atlas,
    subspace_overlap,
)
from .lab import (
    PairedResult,
    VARIANTS,
    VariantSpec,
    ablation_table,
    compare_runs,
    degree_preserving_rewire,
    mutual_knn_densify,
    paired_stats,
    run_variant,
    run_variants,
    sign_test_p,
    variant_by_name,
    wilcoxon_signed_rank,
)
from .synth import gaussian_features, make_sbm_dataset, sbm_graph
from .io import (
    DatasetBundle,
    RunConfig,
    config_hash,
    load_dataset,
    load_features,
    load_labels,
    load_snapshot,
    save_features_binary,
    save_features_csv,
    save_labels,
    save_snapshot,
)

__version__ = PACKAGE_VERSION
