"""capmac: behavioral simulator of capacitive in-sensor MAC arrays with
hardware-in-the-loop training of tiny letter classifiers and autoencoders."""

__version__ = "0.1.0"
