"""cadict: build large concreteness/abstractness rating dictionaries from a small seed.

The pipeline: load static word vectors and an expert-rated lexicon, search for
an optimal pair of seed word sets (a "semantic core") inside the most frequent
expert-rated words, then extrapolate ratings to any vocabulary through
cosine-similarity ratios against the core.
"""

from cadict.embeddings import VectorStore, cache_vectors, load_cache
from cadict.errors import CadictError, DataError, InfeasibleError
from cadict.lexicon import (
    BaseDictionary,
    CandidatePools,
    FrequencyList,
    RatingLexicon,
    load_frequencies,
    load_ratings,
    select_base,
    select_pools,
)
from cadict.metrics import (
    EvaluationReport,
    average_ranks,
    binary_accuracy,
    evaluate_ratings,
    pearson,
    spearman,
)
from cadict.rater import (
    BatchRating,
    SemanticCore,
    build_dictionary,
    load_core,
    rate_all,
    save_core,
)
from cadict.search import (
    CellResult,
    SearchConfig,
    SearchReport,
    SkippedCell,
    search_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BaseDictionary",
    "BatchRating",
    "CadictError",
    "CandidatePools",
    "CellResult",
    "DataError",
    "EvaluationReport",
    "FrequencyList",
    "InfeasibleError",
    "RatingLexicon",
    "SearchConfig",
    "SearchReport",
    "SemanticCore",
    "SkippedCell",
    "VectorStore",
    "__version__",
    "average_ranks",
    "binary_accuracy",
    "build_dictionary",
    "cache_vectors",
    "evaluate_ratings",
    "load_cache",
    "load_core",
    "load_frequencies",
    "load_ratings",
    "pearson",
    "rate_all",
    "save_core",
    "search_grid",
    "select_base",
    "select_pools",
    "spearman",
]
