"""Eyeblink detection toolkit: dataset handling, LBP features, KCF eye
tracking, a multi-scale LSTM verifier, sliding-window detection and the
matching evaluation metrics."""

from . import dataset, evaluation, features, mslstm, pipeline, tracker

__version__ = "0.1.0"
