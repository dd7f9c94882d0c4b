(** Umbrella module: one [open Crowdmax] (or dune library [crowdmax])
    brings every subsystem in under short names. The per-subsystem
    libraries remain independently usable for smaller dependency
    footprints. *)

(* utilities *)
module Rng = Crowdmax_util.Rng
module Stats = Crowdmax_util.Stats
module Table = Crowdmax_util.Table
module Json = Crowdmax_util.Json
module Ints = Crowdmax_util.Ints

(* observability *)
module Metrics = Crowdmax_obs.Metrics
module Clock = Crowdmax_obs.Clock

(* graphs & theory *)
module Answer_dag = Crowdmax_graph.Answer_dag
module Undirected = Crowdmax_graph.Undirected
module Max_ind = Crowdmax_graph.Max_ind
module Linear_ext = Crowdmax_graph.Linear_ext
module Scoring = Crowdmax_graph.Scoring
module Expected_rc = Crowdmax_graph.Expected_rc
module Worst_case = Crowdmax_analysis.Worst_case
module Trajectory = Crowdmax_analysis.Trajectory

(* latency *)
module Latency_model = Crowdmax_latency.Model
module Latency_estimate = Crowdmax_latency.Estimate

(* the core contribution *)
module Tournament = Crowdmax_tournament.Tournament
module Problem = Crowdmax_core.Problem
module Allocation = Crowdmax_core.Allocation
module Tdp = Crowdmax_core.Tdp
module Heuristics = Crowdmax_core.Heuristics
module Bounds = Crowdmax_core.Bounds
module Cost = Crowdmax_core.Cost
module Selection = Crowdmax_selection.Selection

(* crowd substrate *)
module Ground_truth = Crowdmax_crowd.Ground_truth
module Worker = Crowdmax_crowd.Worker
module Worker_pool = Crowdmax_crowd.Worker_pool
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl

(* execution *)
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module Serialize = Crowdmax_runtime.Serialize
module Topk = Crowdmax_topk.Topk
module Sort = Crowdmax_sort.Sort

(* paper experiments *)
module Experiments = Crowdmax_experiments
