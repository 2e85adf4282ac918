"""Eyeblink detection toolkit: dataset handling, LBP features, KCF eye
tracking, a multi-scale LSTM verifier, sliding-window detection and the
matching evaluation metrics."""

from . import dataset, evaluation, features, mslstm, pipeline, tracker
from .dataset import (Clip, EyeCenter, Manifest, crop_eye, eye_region,
                      load_manifest, polish_clip, synth_clip, synth_stream)
from .features import featurize_frames, resize_patch, uniform_lbp
from .mslstm import (MsLstmModel, TrainConfig, asoftmax_loss, init_model,
                     load_model, predict, save_model, softmax_loss, train)
from .pipeline import (BlinkEvent, annotation_locator, detect_stream,
                       temporal_nms, track_eyes, verify_clip)
from .evaluation import (ConfusionCounts, EvalReport, LocalizationTally,
                         average_precision, emit_report, fr, me, prf)
from .tracker import gaussian_correlation, kcf_init, kcf_update

__version__ = "0.1.0"
