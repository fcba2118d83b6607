"""carlab: covariate-adaptive randomization laboratory.

Sequential treatment allocation balancing arbitrary covariate features,
two-arm treatment-effect inference with variance-adjusted tests, and a
deterministic Monte Carlo harness for imbalance and power studies.
"""

from . import allocation, datagen, engine, features, harness, inference
from .allocation import (
    CompleteRandomization,
    EfronBiasedCoin,
    MultiContinuous,
    PocockSimonRank,
    TwoTreatmentContinuous,
)
from .config import load_config
from .datagen import (
    CovariateSetting,
    HeteroscedasticModel,
    LinearModel,
    LocalAlternative,
    LogisticModel,
)
from .engine import (
    imbalance_metrics,
    new_trial,
    assign_next,
    potential_imbalances,
    simulate_assignments,
)
from .errors import (
    CarlabError,
    ConfigError,
    DomainError,
    EstimatorError,
    FitError,
)
from .features import (
    Composite,
    Constant,
    HuHu,
    Identity,
    Indicator,
    Marginal,
    Power,
    Product,
    Stratified,
    apply_feature_map,
    discretize,
    feature_dim,
    feature_matrix,
)
from .harness import (
    AsymptoticParams,
    ExperimentSpec,
    ProcedureSpec,
    procedure_preset,
    run_imbalance_experiment,
    run_power_experiment,
    setting1_params,
    theoretical_power,
    write_table,
)
from .inference import (
    TrialDataset,
    adjusted_test,
    block_length,
    logistic_fit,
    logistic_wald_test,
    lse_fit,
    sigma_tau_bootstrap,
    sigma_tau_mb,
    sigma_tau_mbb,
    sigma_tau_mbj,
    sigma_tau_reg,
    t_ls,
)

__version__ = "0.1.0"
