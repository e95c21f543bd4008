"""Mutual-information regularized optimal transport on sampled domains.

The solvers couple two point clouds by maximizing a kernel-density
estimate of the mutual information of the transport plan, optionally
fused with a conventional transport cost. On top of the couplings sit two
projection maps (plan-weighted means and density-ratio weighted means),
retrieval scoring, and label-transfer pipelines with an unsupervised
bandwidth validation loop.

NumPy is the only runtime dependency: importing the package loads no
SciPy module, which keeps short runs such as one CLI call quick to start.
The Sinkhorn scaling loop, and the Newton polish that finishes a solve
where the loop stalls, live in :mod:`infoot.sinkhorn`. ``infoot.BACKEND``
is the constant ``"python"``, which benchmark results record.
"""

from ._version import __version__
from .datasets import (ClusterSample, GeneratorConfig, class_conditional_cost,
                       gen_clusters)
from .kernels import (DistanceMatrix, KdeModel, build_kde_model, estimate_scale,
                      gaussian_kernel, joint_density, load_distance_csv,
                      pairwise_distances)
from .pipelines import (EvalReport, ExperimentSpec, FitResult,
                        adaptation_pipeline, circular_validation,
                        cluster_coherence, fit_alignment, load_spec,
                        nn_classify, outlier_hits, precision_at_k,
                        project_pipeline, project_source, retrieval_pipeline,
                        solve_pipeline, spec_from_dict, stratified_holdout,
                        validate_bandwidth_pipeline, version_stamp)
from .points import (PointSet, load_points_csv, save_points_csv,
                     uniform_weights)
from .projection import (ProjectionRequest, ScoreMatrix, barycentric_project,
                         conditional_project, importance_scores,
                         importance_weights)
from .sinkhorn import (CouplingMatrix, SinkhornReport, check_marginal,
                       entropy, exact_assignment, sinkhorn)
from .solver import (AlignmentResult, SolverConfig, limit_check, mi_gradient,
                     mutual_information, solve_fused_infoot, solve_infoot)

BACKEND = "python"

__all__ = [
    "__version__",
    "BACKEND",
    # data containers
    "PointSet",
    "DistanceMatrix",
    "KdeModel",
    "CouplingMatrix",
    "SinkhornReport",
    "SolverConfig",
    "AlignmentResult",
    "ProjectionRequest",
    "ScoreMatrix",
    "GeneratorConfig",
    "ClusterSample",
    "ExperimentSpec",
    "EvalReport",
    "FitResult",
    # kernels and densities
    "pairwise_distances",
    "load_distance_csv",
    "estimate_scale",
    "gaussian_kernel",
    "build_kde_model",
    "joint_density",
    # transport
    "sinkhorn",
    "entropy",
    "exact_assignment",
    "check_marginal",
    "mutual_information",
    "mi_gradient",
    "solve_infoot",
    "solve_fused_infoot",
    "limit_check",
    # projections and scoring
    "barycentric_project",
    "conditional_project",
    "importance_weights",
    "importance_scores",
    # data and pipelines
    "uniform_weights",
    "load_points_csv",
    "save_points_csv",
    "gen_clusters",
    "class_conditional_cost",
    "load_spec",
    "spec_from_dict",
    "fit_alignment",
    "project_source",
    "solve_pipeline",
    "project_pipeline",
    "adaptation_pipeline",
    "retrieval_pipeline",
    "circular_validation",
    "validate_bandwidth_pipeline",
    "stratified_holdout",
    "nn_classify",
    "cluster_coherence",
    "precision_at_k",
    "outlier_hits",
    "version_stamp",
]
