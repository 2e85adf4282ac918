"""Exception types shared across the package."""


class BlinkwildError(Exception):
    """Base class for package-specific failures."""


class ManifestError(BlinkwildError):
    """Manifest file is malformed."""


class SplitViolationError(ManifestError):
    """A source id appears in both the train and test split."""


class MissingAssetError(ManifestError):
    """A clip referenced by the manifest does not exist on disk."""


class AnnotationError(BlinkwildError):
    """An annotation record violates its geometric constraints."""


class FrameFormatError(BlinkwildError, ValueError):
    """A frame file is not a well-formed 8-bit binary PGM."""


class NoVisibleEyeError(BlinkwildError):
    """Eye-region geometry was requested with neither eye visible."""


class ModelFormatError(BlinkwildError, ValueError):
    """A model file is not a complete, well-formed model."""


class PredictionsError(BlinkwildError):
    """A predictions CSV does not match its manifest."""


class TrackLostError(BlinkwildError):
    """Tracker region has left the frame entirely."""


class RegionTooSmallError(TrackLostError, ValueError):
    """An eye region is too small for the tracker to learn a filter on."""


class DegenerateGeometryError(BlinkwildError):
    """Ground-truth eye centers coincide; the ME ratio is undefined."""


class InvalidDatasetError(BlinkwildError):
    """A training set is empty, lacks a class, or mixes clip lengths."""
