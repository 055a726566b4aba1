"""Real-time heave/surge prediction of a moored semi-submersible.

Synthetic JONSWAP seas drive a vessel response surrogate; windowed
input-output pairs train a from-scratch LSTM forecaster evaluated with an
area-ratio accuracy metric.
"""

from .dataset import (NormalizationConstants, WindowedDataset, add_noise,
                      build_pairs, compute_norm_constants, regularize,
                      split_campaign)
from .errors import (ConfigurationError, DegenerateDataError, DomainError,
                     NumericalError, SemisubError)
from .experiments import ExperimentConfig, run_experiment, train_cell
from .metrics import accuracy, boxplot_stats, evaluate
from .network import (FcLayerParams, LstmLayerParams, Network, backward,
                      count_params, forward, init_network, load_checkpoint,
                      lstm_forward, mse_loss, save_checkpoint)
from .timeseries import TimeSeries
from .training import (AdamState, TrainingConfig, adam_step, lr_schedule,
                       train)
from .vessel import (DEFAULT_CONDITIONS, CampaignRun, ResponseParams,
                     WaveCondition, generate_campaign, heave_response,
                     load_campaign, save_campaign, surge_response)
from .waves import (SpectrumParams, calibrate_alpha, jonswap_density,
                    synthesize_wave)

__version__ = "0.1.0"
