"""pimdse: design-space exploration for ReRAM processing-in-memory
recommender accelerators."""

__version__ = "0.1.0"

from .design_space import (
    DEFAULT_SPACE,
    BlockConfig,
    DesignPoint,
    ModelConfig,
    OperatorChoice,
    OperatorKind,
    ReRAMConfig,
    SpaceDescriptor,
    cardinality,
    canonical_json,
    mutate,
    point_from_json,
    sample_random,
    validate,
)
from .crossbar import (
    ConverterSpec,
    CrossbarSpec,
    ProgrammedTiles,
    SaturationLog,
    adc_quantize,
    mbsa_square,
    mvm,
    program_signed,
)
from .mapping import (
    MappedModel,
    MappedOperator,
    functional_forward,
    map_dp,
    map_efc,
    map_fc,
    map_fm,
    map_model,
)
from .cost_model import (
    CostReport,
    TechParams,
    default_tech,
    model_cost,
    op_latency,
    overlap_ready_time,
)
from .pipeline import (
    EmbeddingPlacement,
    Schedule,
    ThroughputReport,
    place_embeddings,
    schedule,
    simulate,
    simulate_lookup,
)
from .evaluator import EvalResult, SurrogateParams, ingest_external, surrogate_loss
from .search import SearchConfig, criterion, run_search, sample_and_select
