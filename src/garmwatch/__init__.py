"""Garment-of-interest detection in surveillance frame sequences.

The pipeline turns a frame stream into per-frame garment detections:
adaptive mixture-of-Gaussians background subtraction isolates new pixels,
color band masks pick out garment hues, closing and 8-connected labelling
shape them into regions, nearby regions cluster into garments, and
regions worn by detected persons are dropped.  Companion modules score
detections against ground truth (IoU, precision, recall, threshold
curves) and synthesize test scenes with exact ground truth.
"""

from .bgsub import BackgroundModel, apply_mask
from .cluster import RegionCluster, box_gap, cluster_contours, exclude_persons, to_detections
from .colorseg import DEFAULT_BANDS, ColorBand, color_mask, masked_to_gray, rgb_to_hsv
from .config import PipelineConfig
from .errors import (ConfigError, FormatError, GarmwatchError, ParseError, SceneError,
                     SequenceError, ShapeError, StreamError, ValidationError)
from .frameio import Annotation, BoundingBox, Detection, Frame, PersonBoxes
from .metrics import EvalCounts, EvalReport, evaluate, iou, match_frame, pr_curve
from .pipeline import Pipeline, iter_sequence, process_sequence
from .regions import Contour, Region, binarize, close, components, filter_small, trace_contours
from .synth import SceneObject, ScenePerson, SceneSpec, generate, generate_frames, warmup_prefix

__version__ = "0.1.0"

__all__ = [
    "Annotation", "BackgroundModel", "BoundingBox", "ColorBand", "ConfigError",
    "Contour", "DEFAULT_BANDS", "Detection", "EvalCounts", "EvalReport",
    "FormatError", "Frame", "GarmwatchError", "ParseError", "PersonBoxes",
    "Pipeline", "PipelineConfig", "Region", "RegionCluster", "SceneError", "SceneObject",
    "ScenePerson", "SceneSpec", "SequenceError", "ShapeError", "StreamError",
    "ValidationError", "apply_mask", "binarize", "box_gap", "close",
    "cluster_contours", "color_mask", "components", "evaluate", "exclude_persons",
    "filter_small", "generate", "generate_frames", "iou", "iter_sequence",
    "masked_to_gray", "match_frame", "pr_curve", "process_sequence",
    "rgb_to_hsv", "to_detections", "trace_contours", "warmup_prefix",
]
