"""Real-time heave/surge prediction of a moored semi-submersible.

Synthetic JONSWAP seas drive a vessel response surrogate; windowed
input-output pairs train a from-scratch LSTM forecaster evaluated with an
area-ratio accuracy metric.
"""

from . import (dataset, errors, experiments, metrics, network, timeseries,
               training, vessel, waves)

__version__ = "0.1.0"
