"""capmac: behavioral simulator of capacitive in-sensor MAC arrays with
hardware-in-the-loop training of tiny letter classifiers and autoencoders."""

__version__ = "0.1.0"

from .device import (MacPhase, SensorParams, apply_noise, mac,
                     phase_switches, series_capacitance)
from .weights import WeightBank, binarize_weights, normalize_weights
from .arrays import (ArrayTopology, ConvSchedule, build_fc_array, conv_forward,
                     fc_forward, resource_report, schedule_conv)
from .dataset import (CapacitiveSample, Glyph, LetterImage, balanced_batch,
                      encode_capacitive, letter_patterns, sample_batch)
from .netlab import (Checkpoint, NetworkSpec, TrainConfig, TrainHistory,
                     TrainingDiverged, cross_entropy, default_config,
                     load_checkpoint, save_checkpoint, sigmoid, softmax,
                     train_autoencoder, train_cnn_classifier,
                     train_fc_classifier)
from .metrics import EnergyModel, PhaseTiming, assemble_waveform, energy, latency
