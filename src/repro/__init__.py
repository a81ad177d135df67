"""repro — Plan Bouquets: query processing without selectivity estimation.

A complete reproduction of Dutt & Haritsa, SIGMOD 2014, including every
substrate the paper depends on: a cost-based optimizer with selectivity
injection, an instrumented budget-limited execution engine, synthetic
TPC-H / TPC-DS environments, POSP/plan-diagram machinery, anorexic
reduction, and the NAT/SEER baselines.

Typical usage (the :mod:`repro.api` facade)::

    from repro import BouquetConfig, Catalog, compile_bouquet, execute

    catalog = Catalog(schema, statistics=stats, database=db)
    compiled = compile_bouquet(sql, catalog, config=BouquetConfig(resolution=24))
    result = execute(compiled, db)

For cached, concurrent, multi-tenant serving see :mod:`repro.serve`
(``BouquetServer`` over a content-addressed ``BouquetArtifactStore``,
fronted by ``ServeGateway`` admission control and the asyncio
``BouquetFrontEnd`` speaking ``ServeRequest``/``ServeResponse``
envelopes); for paper-style ESS-wide experiment sweeps::

    from repro import Lab, simulate_at

    lab = Lab()
    ql = lab.build("3D_H_Q5")          # ESS + plan diagram + bouquet
    result = simulate_at(ql.bouquet, qa_location=(4, 7, 2))
    print(result.total_cost / ql.diagram.cost_at((4, 7, 2)))  # sub-optimality
"""

from .api import (
    DEFAULT_CONFIG,
    BouquetConfig,
    Catalog,
    CompiledBouquet,
    compile_bouquet,
    default_error_dimensions,
    execute,
    fuzz,
    generate_workload,
    simulate,
)
from .bench.harness import Lab, QueryLab, shared_lab
from .catalog import tpcds_schema, tpch_schema
from .core import (
    BouquetRunner,
    PlanBouquet,
    basic_cost_field,
    identify_bouquet,
    mso_bound_1d,
    mso_bound_multid,
    simulate_at,
)
from .core.advisor import ProcessingMode, Recommendation, recommend_processing_mode
from .core.maintenance import RefreshResult, refresh_bouquet
from .core.runtime import AbstractExecutionService
from .core.validation import ValidationReport, validate_bouquet
from .datagen import Database
from .ess import ErrorDimension, PlanDiagram, SelectivitySpace
from .exceptions import (
    BouquetError,
    BudgetExceeded,
    CatalogError,
    EssError,
    ExecutionError,
    OptimizerError,
    QueryError,
    ReproError,
)
from .executor import ExecutionEngine, RealExecutionService
from .obs import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    TraceSummary,
    Tracer,
    read_trace,
    summarize_trace,
)
from .optimizer import (
    COMMERCIAL_COST_MODEL,
    POSTGRES_COST_MODEL,
    Optimizer,
    actual_selectivities,
    estimate_selectivities,
)
from .query import JoinPredicate, Query, SelectionPredicate, parse_query, render_sql
from .query.workload import TABLE2_NAMES, WorkloadQuery, full_workload
from .robustness import NativeOptimizerStrategy, ReoptStrategy, SeerStrategy
from .runtime import AsyncioRuntime, Runtime, SimulatedRuntime, SyncRuntime
from .serve import (
    ArtifactKey,
    BouquetArtifactStore,
    BouquetFrontEnd,
    BouquetServer,
    ServeGateway,
    ServeRequest,
    ServeResponse,
    TenantQuota,
)
from .template import (
    TemplateSignature,
    TemplateStore,
    rebind_compiled,
    template_signature,
)

__version__ = "1.0.0"

__all__ = [
    "BouquetConfig",
    "Catalog",
    "CompiledBouquet",
    "DEFAULT_CONFIG",
    "compile_bouquet",
    "default_error_dimensions",
    "execute",
    "fuzz",
    "generate_workload",
    "simulate",
    "ArtifactKey",
    "AsyncioRuntime",
    "BouquetArtifactStore",
    "BouquetFrontEnd",
    "BouquetServer",
    "Runtime",
    "ServeGateway",
    "ServeRequest",
    "ServeResponse",
    "SimulatedRuntime",
    "SyncRuntime",
    "TenantQuota",
    "Lab",
    "QueryLab",
    "shared_lab",
    "tpcds_schema",
    "tpch_schema",
    "BouquetRunner",
    "PlanBouquet",
    "basic_cost_field",
    "identify_bouquet",
    "mso_bound_1d",
    "mso_bound_multid",
    "simulate_at",
    "AbstractExecutionService",
    "Database",
    "ErrorDimension",
    "PlanDiagram",
    "SelectivitySpace",
    "BouquetError",
    "BudgetExceeded",
    "CatalogError",
    "EssError",
    "ExecutionError",
    "OptimizerError",
    "QueryError",
    "ReproError",
    "ExecutionEngine",
    "RealExecutionService",
    "NULL_TRACER",
    "JsonlSink",
    "MemorySink",
    "TraceSummary",
    "Tracer",
    "read_trace",
    "summarize_trace",
    "COMMERCIAL_COST_MODEL",
    "POSTGRES_COST_MODEL",
    "Optimizer",
    "actual_selectivities",
    "estimate_selectivities",
    "JoinPredicate",
    "Query",
    "SelectionPredicate",
    "parse_query",
    "render_sql",
    "ProcessingMode",
    "Recommendation",
    "recommend_processing_mode",
    "RefreshResult",
    "refresh_bouquet",
    "TABLE2_NAMES",
    "WorkloadQuery",
    "full_workload",
    "NativeOptimizerStrategy",
    "ReoptStrategy",
    "SeerStrategy",
    "ValidationReport",
    "validate_bouquet",
    "TemplateSignature",
    "TemplateStore",
    "rebind_compiled",
    "template_signature",
]
