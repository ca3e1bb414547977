"""Video corpus moment retrieval at desk scale: a retrieve-then-localize
pipeline with partial-relevance training objectives, built on a small
float64 autodiff engine and validated on synthetic multi-modal corpora."""

from .autodiff import NonFiniteError, ShapeError, Tape, Tensor
from .corpus import Corpus, Query, SyntheticSpec, Video, generate
from .localizer import LocalizerConfig, LocalizerModel
from .pipeline import InferenceConfig, MetricsReport, MomentPrediction, TrainConfig
from .retriever import RetrieverConfig, RetrieverModel

__all__ = [
    "Corpus",
    "InferenceConfig",
    "LocalizerConfig",
    "LocalizerModel",
    "MetricsReport",
    "MomentPrediction",
    "NonFiniteError",
    "Query",
    "RetrieverConfig",
    "RetrieverModel",
    "ShapeError",
    "SyntheticSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "Video",
    "generate",
]
