(* Fig_adapt: closed-loop recovery from a mid-run supply shift.

   The tDP plan is only optimal for the latency model it was solved
   against. This experiment knocks the platform's worker supply down
   mid-run (fewer arrivals, so the marginal seconds per extra question
   — alpha — jump while the posting overhead delta barely moves) and
   compares three adaptive arms over the same shifted run:

   - stale: keep planning open-loop with the pre-shift model. The
     re-plans keep sizing batches as if questions were still cheap.
   - closed: the On_drift re-fit loop — observe each round's (posted,
     seconds), detect that the model's relative residual blew past the
     threshold, re-fit L(q) on the disagreeing points and re-solve.
   - omniscient: open-loop, but handed the true post-shift model (an
     offline calibration of the slow platform) at the shift round. The
     best any re-planner could do; lower-bounds the reachable latency.

   The read-out is how much of the stale-to-omniscient latency gap the
   closed loop recovers, at no correctness loss. The acceptance bar
   (checked by the test suite and the CI smoke) is half the gap. *)

module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Selection = Crowdmax_selection.Selection

type arm = {
  label : string;
  mean_latency : float;
  p95_latency : float;
  correct_rate : float;
  refits : int;
  drift_detected : int;
  replans_on_drift : int;
}

type t = {
  elements : int;
  budget : int;
  runs : int;
  shift_round : int;
  shifted_model : Model.t;
  stale : arm;
  closed : arm;
  omniscient : arm;
}

(* The post-shift platform: a supply drop. Scaling both arrival knobs
   stretches the time to drain a batch (alpha jumps from 0.06 to ~5
   s/question at scale 0.08) while the post-and-index overhead (delta)
   grows far less, so the *shape* of L(q) changes — exactly the
   situation where the stale plan's batch sizing is wrong, not merely
   uniformly slow: the planner keeps buying big batches that the
   starved platform drains at ~90x the modeled per-question rate. *)
let supply_scale = 0.08

let slow_config scale =
  let c = Platform.default_config in
  {
    c with
    Platform.base_rate = c.Platform.base_rate *. scale;
    attract_per_question = c.Platform.attract_per_question *. scale;
  }

let slow_platform scale = Platform.create ~config:(slow_config scale) ()

let source platform votes =
  Engine.Simulated
    { platform; rwl = { Rwl.votes; error = Worker.Uniform 0.15 } }

(* Per-observation platform noise sits around 20-30% of the mean
   (relative residual RMS against the platform's own calibration), while
   the supply shift pushes the stale model's relative residual to
   0.6-0.9. Halfway between: the detector stays quiet on noise and
   fires on the first post-shift observation. *)
let drift_threshold = 0.5

let run ?(jobs = 1) ?(runs = 24) ?(seed = 71) ?(elements = 1000)
    ?(budget = 2500) ?(votes = 3) ?(shift_round = 1) ?(scale = supply_scale) ()
    =
  let model = Common.estimated_model in
  let problem = Problem.create ~elements ~budget ~latency:model in
  let selection = Selection.tournament in
  let fast = source (Platform.create ()) votes in
  (* The offline calibration of the slow platform: what a
     supply-shift-aware operator would have measured ahead of time; the
     omniscient arm installs it at the shift round. *)
  let shifted_model = Fig11a.calibrate (slow_platform scale) in
  (* Each arm gets its own platform/source values (they are immutable
     config, but per-arm values keep the arms visibly independent) and
     the same seed, so the three arms share ground truths and worker
     draws up to the point their plans diverge. *)
  let arm label ?refit ?model_shift () =
    let source_shift = (shift_round, source (slow_platform scale) votes) in
    let agg =
      Adaptive.replicate ~jobs ~source:fast ?refit ~source_shift ?model_shift
        ~runs ~seed ~problem ~selection ()
    in
    let e = agg.Adaptive.engine_aggregate in
    {
      label;
      mean_latency = e.Engine.mean_latency;
      p95_latency = e.Engine.p95_latency;
      correct_rate = e.Engine.correct_rate;
      refits = agg.Adaptive.total_refits;
      drift_detected = agg.Adaptive.total_drift_detected;
      replans_on_drift = agg.Adaptive.total_replans_on_drift;
    }
  in
  let stale = arm "stale (open loop)" ~refit:Adaptive.Off () in
  let closed =
    arm "closed loop" ~refit:(Adaptive.On_drift drift_threshold) ()
  in
  let omniscient =
    arm "omniscient re-plan" ~refit:Adaptive.Off
      ~model_shift:(shift_round, shifted_model) ()
  in
  { elements; budget; runs; shift_round; shifted_model; stale; closed;
    omniscient }

(* Fraction of the stale-to-omniscient mean-latency gap the closed loop
   recovers; 1.0 when the gap is degenerate (nothing to recover). *)
let recovery t =
  let gap = t.stale.mean_latency -. t.omniscient.mean_latency in
  if gap <= 0.0 then 1.0
  else (t.stale.mean_latency -. t.closed.mean_latency) /. gap

let print t =
  let module Table = Crowdmax_util.Table in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Supply shift at round %d: c0 = %d, b = %d, %d runs"
           t.shift_round t.elements t.budget t.runs)
      [
        ("arm", Table.Left);
        ("mean (s)", Table.Right);
        ("p95 (s)", Table.Right);
        ("correct (%)", Table.Right);
        ("refits", Table.Right);
        ("drift", Table.Right);
        ("replans", Table.Right);
      ]
  in
  List.iter
    (fun a ->
      Table.add_row table
        [
          a.label;
          Printf.sprintf "%.1f" a.mean_latency;
          Printf.sprintf "%.1f" a.p95_latency;
          Printf.sprintf "%.1f" (100.0 *. a.correct_rate);
          string_of_int a.refits;
          string_of_int a.drift_detected;
          string_of_int a.replans_on_drift;
        ])
    [ t.stale; t.closed; t.omniscient ];
  Table.print table;
  (match t.shifted_model with
  | Model.Linear { delta; alpha } ->
      Printf.printf
        "calibrated post-shift model: delta = %.1f, alpha = %.3f\n" delta alpha
  | _ -> ());
  Printf.printf "gap recovery: %.0f%% of the stale-to-omniscient gap\n"
    (100.0 *. recovery t)
