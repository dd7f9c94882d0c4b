(** JSON for the CLI's run dumps: an aggregate document, optionally
    carrying a metrics snapshot, and the decoders
    [crowdmax_cli metrics-check] reads back. {!metrics_of_json} inverts
    {!metrics_to_json} exactly (tested). *)

val aggregate_to_json :
  ?metrics:Crowdmax_obs.Metrics.snapshot ->
  Engine.aggregate ->
  Crowdmax_util.Json.t
(** [metrics] (omitted by default, so pre-observability consumers see an
    unchanged document) appends a ["metrics"] field holding
    {!metrics_to_json} of the snapshot. *)

val metrics_schema : string
(** ["crowdmax-metrics/v1"] — the [schema] field of every metrics
    document. *)

val metrics_to_json : Crowdmax_obs.Metrics.snapshot -> Crowdmax_util.Json.t
(** One object per section (["planner"], ["engine"], ["platform"]),
    keyed by instrument name; each value is tagged with its [kind]
    ([count], [peak], [histogram], [real_seconds]). Entry order follows
    the snapshot's (section, name) sort, so the document layout is
    deterministic. *)

val metrics_of_json :
  Crowdmax_util.Json.t -> (Crowdmax_obs.Metrics.snapshot, string) result
(** Inverse of {!metrics_to_json} (the snapshot is re-sorted, so the
    round trip is exact even for hand-edited documents). *)

val aggregate_metrics_of_json :
  Crowdmax_util.Json.t -> (Crowdmax_obs.Metrics.snapshot, string) result
(** The ["metrics"] field of an aggregate document; absent (any dump
    written before the observability layer) decodes to the empty
    snapshot. *)
