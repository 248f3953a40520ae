"""repro.obs — pipeline-wide tracing, metrics and profiling.

See :mod:`repro.obs.collector` for the Span/Collector model,
:mod:`repro.obs.stats` for the JSON schema and renderers,
:mod:`repro.obs.prom` for Prometheus text exposition,
:mod:`repro.obs.traceexport` for the OTLP-ish trace dump, and
:mod:`repro.obs.journal` for the daemon's per-request telemetry journal.
"""

from repro.obs.collector import (
    DEFAULT_BUCKET_BOUNDS,
    NULL,
    PIPELINE_STAGES,
    RESERVOIR_SIZE,
    STAGE_ALIAS,
    STAGE_CALLGRAPH,
    STAGE_DEPGRAPH,
    STAGE_DISENTANGLE,
    STAGE_ENCODE,
    STAGE_ENGINE_SHARD,
    STAGE_PARSE,
    STAGE_PATH_ENUM,
    STAGE_SERVICE_REQUEST,
    STAGE_SOLVE,
    STAGE_SSA,
    STAGE_SUSPICIOUS,
    Collector,
    Dist,
    NullCollector,
    Span,
    new_span_id,
    new_trace_id,
)
from repro.obs.journal import (
    TelemetryJournal,
    filter_records,
    render_top,
    request_record,
    summarize,
)
from repro.obs.prom import render_prometheus, validate_exposition
from repro.obs.stats import (
    SCHEMA,
    json_dumps,
    load,
    render_stats,
    snapshot,
)
from repro.obs.traceexport import trace_to_otlp, write_trace

__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "NULL",
    "PIPELINE_STAGES",
    "RESERVOIR_SIZE",
    "STAGE_ALIAS",
    "STAGE_CALLGRAPH",
    "STAGE_DEPGRAPH",
    "STAGE_DISENTANGLE",
    "STAGE_ENCODE",
    "STAGE_ENGINE_SHARD",
    "STAGE_PARSE",
    "STAGE_PATH_ENUM",
    "STAGE_SERVICE_REQUEST",
    "STAGE_SOLVE",
    "STAGE_SSA",
    "STAGE_SUSPICIOUS",
    "Collector",
    "Dist",
    "NullCollector",
    "Span",
    "TelemetryJournal",
    "filter_records",
    "new_span_id",
    "new_trace_id",
    "render_prometheus",
    "render_top",
    "request_record",
    "summarize",
    "validate_exposition",
    "SCHEMA",
    "json_dumps",
    "load",
    "render_stats",
    "snapshot",
    "trace_to_otlp",
    "write_trace",
]
