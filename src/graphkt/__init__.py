"""Graph-based knowledge tracing with a three-stage memory model."""

__version__ = "0.1.0"

from .data import ColumnSchema, Dataset, FoldSplit, Response, ResponseSequence
from .graphs import GraphBuildConfig, KcRelationGraphs
from .model import GrktModel, HyperParams
from .train import TrainConfig

__all__ = [
    "ColumnSchema", "Dataset", "FoldSplit", "Response", "ResponseSequence",
    "GraphBuildConfig", "KcRelationGraphs",
    "GrktModel", "HyperParams",
    "TrainConfig",
    "__version__",
]
