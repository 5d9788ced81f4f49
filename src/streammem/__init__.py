"""streammem: bounded-budget streaming memory over frame feature streams.

A single writer ingests per-frame feature grids and folds them into four
fixed-size banks (spatial buffer, clustered temporal summary, decayed
abstract summary, retrieved key frames). Readers get immutable versioned
snapshots at any time, independent of how many frames have streamed past.
"""

# Each library module's __all__ is the one list of its public names; the
# package republishes them. The stages (pooling, clustering, attention and
# retrieval) are reached through the engine, so only the value types they
# return and the params IO are public. Importing a submodule binds its name here.
from .model import *
from .clustering import *
from .attention import *
from .engine import *
from .streamio import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__, *clustering.__all__, *attention.__all__, *engine.__all__,
    *streamio.__all__, *bench.__all__, "__version__",
]
