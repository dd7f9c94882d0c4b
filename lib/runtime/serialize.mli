(** JSON documents for engine outputs.

    The encoders let external tooling (plotting, dashboards) consume runs
    without linking OCaml. Only the metrics documents are read back:
    [crowdmax_cli metrics-check] decodes an aggregate's ["metrics"] field,
    and {!metrics_of_json} inverts {!metrics_to_json} exactly (tested). *)

val round_to_json : Engine.round_record -> Crowdmax_util.Json.t
val result_to_json : Engine.result -> Crowdmax_util.Json.t

val model_to_json : Crowdmax_latency.Model.t -> Crowdmax_util.Json.t
(** [Linear]/[Power] parameters or [Piecewise] knots, tagged by [kind].
    Raises [Invalid_argument] for [Custom] models (closures have no
    serial form). *)

val adaptive_result_to_json : Adaptive.result -> Crowdmax_util.Json.t
(** The engine result plus the closed-loop fields ([replans], [refits],
    [drift_detected], [replans_on_drift]) and the final planning model. *)

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
