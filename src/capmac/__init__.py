"""capmac: behavioral simulator of capacitive in-sensor MAC arrays with
hardware-in-the-loop training of tiny letter classifiers and autoencoders."""

__version__ = "0.1.0"

from .device import (PHASES, SensorParams, apply_noise, mac, mac_phases,
                     series_capacitance)
from .weights import WeightBank, binarize_weights, normalize_weights
from .arrays import (ArrayTopology, build_fc_array, conv_forward, fc_forward,
                     schedule_conv)
from .dataset import (GRIDS, LABELS, CapacitiveSample, Glyph, encode_capacitive,
                      noisy_letters, sample_batch)
from .netlab import (MODELS, Checkpoint, TrainConfig, TrainHistory, TrainingDiverged,
                     cross_entropy, default_config, load_checkpoint, save_checkpoint,
                     sigmoid, softmax, train)
from .metrics import assemble_waveform, charge_energy, schedule_report
