"""perfest: label-free performance estimation for black-box LLM services.

Token-probability features (NLL, PPL, GAP, MaxEnt) are extracted from
invocation records, summarized as fixed-dimension quantile profiles, and
fed to small meta-model regressors that predict task-level F1 without
any labels on the target task.
"""

from .core import (ContextSpec, InvocationRecord, RecordStore, SettingBatch,
                   TaskDataset, TokenStep, read_records, write_records)
from .features import FeatureKind, extract_task_features, gap, max_ent, nll, ppl
from .feature_selection import (combination_score, correlation_matrix,
                                pearson, select_best_combination)
from .profile import FeatureProfile, build_profile, interpolate_profile
from .metamodels import (ModelKind, ModelSpec, TrainedMetaModel, TrainingRow,
                         grid_search, load_model, predict, predict_many,
                         save_model, train)
from .baselines import (AtcCalibration, atc_calibrate, atc_estimate,
                        avg_train_estimate, sample_n_estimate)
from .evaluation import (ExperimentPlan, ExperimentReport, PreparedSetting,
                         f1_score, kfold_split, mae, prepare_setting,
                         run_experiment, task_performance)
from .services import (HttpClient, MarketplaceConfig, MarketplaceTruth,
                       ServiceDescriptor, invoke, marketplace_truth,
                       synth_marketplace)
from .applications import (SettingCandidate, candidates_from_model,
                           rank_finetune_targets, select_setting)

__version__ = "0.1.0"
