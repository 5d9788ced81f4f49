"""streammem: bounded-budget streaming memory over frame feature streams.

A single writer ingests per-frame feature grids and folds them into four
fixed-size banks (spatial buffer, clustered temporal summary, decayed
abstract summary, retrieved key frames). Readers get immutable versioned
snapshots at any time, independent of how many frames have streamed past.
"""

from .model import (
    BANK_ORDER,
    ConcurrentWriteError,
    ConfigError,
    FrameFeature,
    MemoryConfig,
    MemorySnapshot,
    ShapeError,
    WarmupError,
    default_config,
    max_tokens,
)
from .pooling import average_pool
from .clustering import ClusterState, temporal_update, weighted_kmeans
from .attention import (
    AttentionGrads,
    AttentionParams,
    abstract_update,
    load_attention_params,
    save_attention_params,
    semantic_attention,
    semantic_attention_grad,
)
from .retrieval import retrieve_key_features
from .engine import MemoryEngine, QueryResult
from .streamio import (
    StreamFormatError,
    StreamHeader,
    open_stream,
    synth_stream,
    write_stream,
)
from .bench import (
    BenchReport,
    PcaExport,
    bench_latency,
    export_memory_pca,
    sweep_ablation,
)

__version__ = "0.1.0"

__all__ = [
    "BANK_ORDER",
    "ConfigError",
    "ShapeError",
    "WarmupError",
    "ConcurrentWriteError",
    "StreamFormatError",
    "FrameFeature",
    "MemoryConfig",
    "MemorySnapshot",
    "default_config",
    "max_tokens",
    "average_pool",
    "ClusterState",
    "weighted_kmeans",
    "temporal_update",
    "AttentionParams",
    "AttentionGrads",
    "semantic_attention",
    "semantic_attention_grad",
    "abstract_update",
    "save_attention_params",
    "load_attention_params",
    "retrieve_key_features",
    "MemoryEngine",
    "QueryResult",
    "StreamHeader",
    "open_stream",
    "write_stream",
    "synth_stream",
    "bench_latency",
    "sweep_ablation",
    "export_memory_pca",
    "PcaExport",
    "BenchReport",
    "__version__",
]
