(** Deterministic, allocation-light runtime metrics.

    A {!t} is a registry of named instruments, grouped into sections
    (["planner"], ["engine"], ["platform"]). The registry comes in two
    states:

    - {!disabled} — the default everywhere. Every instrument handle
      obtained from a disabled registry is a constant no-op: recording
      into it is a single branch, registration allocates nothing, and
      the instrumented code path stays bit-identical to the
      un-instrumented one (the golden hex tests prove this for the
      engine).
    - [create ()] — enabled. Counters, peaks and histograms record
      purely {e simulated} quantities and are therefore deterministic:
      two runs from the same seed produce equal snapshots, whatever the
      parallelism ([Engine.replicate_with_metrics] merges per-run
      snapshots in run order). Spans are the one real-time instrument;
      their [Real_seconds] entries are machine-dependent by nature and
      are excluded from the determinism contract — strip them with
      {!simulated_only} before comparing.

    A registry is single-domain mutable state: never share one across
    the [Parallel] pool — give each run its own and {!merge} the
    snapshots afterwards.

    The enabled/disabled decision is made once, when an instrument
    handle is created; the per-event operations ({!incr}, {!observe},
    ...) only pattern-match the handle. *)

type t
(** A metrics registry. *)

val disabled : t
(** The inert registry: all handles are no-ops, nothing is recorded. *)

val create : unit -> t
(** A fresh enabled registry. *)

val enabled : t -> bool
(** [enabled t] — whether instruments on [t] record anything. Use it to
    guard instrumentation whose {e argument computation} is itself
    costly; plain recording calls don't need the guard. *)

val reset : t -> unit
(** Zero every instrument on [t] without dropping its registrations:
    existing handles stay valid and keep recording into the same cells.
    This makes a registry reusable across repeated measurements without
    re-paying registration — provided the instrumented code registers
    the same instrument set on every pass, a reused-and-reset registry
    snapshots identically to a fresh one. A no-op on [disabled]. *)

(** {1 Instruments}

    All instruments are obtained with a [~section] and a name.
    Requesting the same (section, name) twice on the same registry
    returns the same underlying instrument; requesting it with a
    different instrument kind raises [Invalid_argument]. *)

type counter
(** A monotonic event count. *)

type peak
(** A high-water mark (merged by [max]). *)

type histogram
(** A fixed-bucket histogram of float observations. *)

type span
(** An accumulated real-time duration ({!Clock}-based). *)

val counter : t -> section:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] for [n >= 0]; [incr c = add c 1]. *)

val peak : t -> section:string -> string -> peak
val record_peak : peak -> int -> unit
(** Keeps the maximum value ever recorded. *)

type bucket_spec
(** A validated, immutable set of histogram bucket bounds. Because the
    type is abstract (and the constructor copies its input), a
    module-level [bucket_spec] constant is safely shareable across
    domains and registries: registration neither re-validates nor
    copies it. *)

val bucket_spec : float array -> bucket_spec
(** The bounds are strictly increasing upper bounds; observations above
    the last bound land in an implicit overflow bucket. Raises
    [Invalid_argument] on an empty or non-increasing array, and
    captures a private copy. *)

val histogram : t -> section:string -> string -> buckets:bucket_spec -> histogram

val observe : histogram -> float -> unit

val span : t -> section:string -> string -> span
val time : span -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()], adding its wall-clock duration to [s]
    (exceptions included). On a no-op span this is just [f ()] — no
    clock is read, so simulated code paths stay deterministic. *)

(** {1 Snapshots} *)

type value =
  | Count of int
  | Peak of int
  | Histogram of {
      buckets : float array;  (** upper bounds, strictly increasing *)
      counts : int array;  (** length [buckets + 1]; last is overflow *)
      total : int;
      sum : float;
    }
  | Real_seconds of float
      (** machine-dependent; excluded from determinism comparisons *)

type entry = { section : string; name : string; value : value }

type snapshot = entry list
(** Sorted by (section, name); the exported shape is deterministic. *)

val snapshot : t -> snapshot
(** The registry's current contents ([[]] for {!disabled}). Later
    recording does not mutate the snapshot: every mutable quantity is
    copied out. Histogram {e bucket bounds} are shared (they are fixed
    at registration); treat them as read-only. *)

val merge : snapshot list -> snapshot
(** Entry-wise combination: counts and sums add, peaks max, histogram
    buckets must agree (else [Invalid_argument]). [merge] is
    order-insensitive for the result's {e values} and always returns a
    sorted snapshot, so merging per-run snapshots in run order is
    deterministic for any parallel schedule. *)

val absorb : into:t -> t -> unit
(** [absorb ~into t] adds [t]'s current values into [into] in place,
    registering any missing instruments. Absorbing successive
    measurements of a reused registry (see {!reset}) and snapshotting
    [into] at the end equals the left-fold {!merge} of the
    per-measurement snapshots — same value grouping, hence the same
    float bits — without allocating a snapshot per step. Kind clashes
    and mismatched histogram buckets raise [Invalid_argument]; a
    {!disabled} registry on either side makes it a no-op. *)

val simulated_only : snapshot -> snapshot
(** Drop every [Real_seconds] entry — what the determinism contract
    quantifies over. *)

val find : snapshot -> section:string -> string -> value option
(** Lookup, mainly for tests and report printers. *)

val equal : snapshot -> snapshot -> bool
(** Structural equality with typed float comparison (NaN-safe). *)
