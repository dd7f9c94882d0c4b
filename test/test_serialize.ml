module Ser = Crowdmax_runtime.Serialize
module E = Crowdmax_runtime.Engine
module S = Crowdmax_selection.Selection
module J = Crowdmax_util.Json
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module G = Crowdmax_crowd.Ground_truth
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_bool = Alcotest.check Alcotest.bool

let model = Model.paper_mturk

let sample_result seed =
  let rng = Rng.create seed in
  let c0 = 10 + Rng.int rng 60 in
  let sol =
    Tdp.solve (Problem.create ~elements:c0 ~budget:(4 * c0) ~latency:model)
  in
  let cfg =
    E.config ~allocation:sol.Tdp.allocation ~selection:S.tournament
      ~latency_model:model ()
  in
  let truth = G.random rng c0 in
  E.run rng cfg truth

let test_result_roundtrip () =
  for seed = 1 to 20 do
    let r = sample_result seed in
    match Ser.result_of_json (Ser.result_to_json r) with
    | Ok r' -> check_bool "roundtrip" true (r = r')
    | Error e -> Alcotest.fail e
  done

let test_result_roundtrip_through_text () =
  let r = sample_result 99 in
  let text = J.to_string ~pretty:true (Ser.result_to_json r) in
  match Ser.result_of_json (J.of_string text) with
  | Ok r' -> check_bool "text roundtrip" true (r = r')
  | Error e -> Alcotest.fail e

let test_aggregate_roundtrip () =
  let r = sample_result 7 in
  ignore r;
  let agg =
    {
      E.runs = 30;
      mean_latency = 123.5;
      stddev_latency = 4.25;
      median_latency = 120.0;
      p95_latency = 180.25;
      singleton_rate = 1.0;
      correct_rate = 0.96875;
      mean_questions = 321.0;
      mean_rounds = 2.5;
      timing = { E.jobs = 4; wall_seconds = 1.75; runs_per_sec = 17.14 };
    }
  in
  match Ser.aggregate_of_json (Ser.aggregate_to_json agg) with
  | Ok agg' -> check_bool "roundtrip" true (agg = agg')
  | Error e -> Alcotest.fail e

(* Checkpoints written before the timing record existed must still
   load: the decoder defaults jobs/wall_seconds/runs_per_sec. *)
let test_aggregate_pre_timing_compat () =
  let agg =
    {
      E.runs = 10;
      mean_latency = 50.0;
      stddev_latency = 2.0;
      median_latency = 49.0;
      p95_latency = 55.0;
      singleton_rate = 0.9;
      correct_rate = 1.0;
      mean_questions = 100.0;
      mean_rounds = 3.0;
      timing = { E.jobs = 1; wall_seconds = 0.0; runs_per_sec = 0.0 };
    }
  in
  let stripped =
    match Ser.aggregate_to_json agg with
    | J.Obj fields ->
        J.Obj
          (List.filter
             (fun (k, _) ->
               k <> "jobs" && k <> "wall_seconds" && k <> "runs_per_sec")
             fields)
    | _ -> assert false
  in
  match Ser.aggregate_of_json stripped with
  | Ok agg' -> check_bool "defaults applied" true (agg = agg')
  | Error e -> Alcotest.fail e

(* The deadline fields round-trip, including through a run that
   actually strands and reissues questions. *)
let deadline_result () =
  let rng = Rng.create 3 in
  let sol = Tdp.solve (Problem.create ~elements:60 ~budget:400 ~latency:model) in
  (* The cutoff comes from the platform config (see
     [Test_engine.binding_cutoff]), so it strands round-1 questions on
     any draw stream. *)
  let platform = Crowdmax_crowd.Platform.create () in
  let cutoff = Test_engine.binding_cutoff platform sol.Tdp.allocation ~votes:3 in
  let cfg =
    E.config
      ~source:
        (E.Simulated
           {
             platform;
             rwl = { Crowdmax_crowd.Rwl.votes = 3; error = Crowdmax_crowd.Worker.Uniform 0.15 };
           })
      ~deadline:(E.Fixed cutoff) ~straggler:E.Carry_forward
      ~allocation:sol.Tdp.allocation ~selection:S.tournament
      ~latency_model:model ()
  in
  let truth = G.random rng 60 in
  E.run rng cfg truth

let test_deadline_result_roundtrip () =
  let r = deadline_result () in
  (* the sample must actually exercise the new fields *)
  check_bool "has deadline hit" true
    (List.exists (fun rr -> rr.E.deadline_hit) r.E.trace);
  check_bool "has unanswered" true
    (List.exists (fun rr -> rr.E.unanswered_questions > 0) r.E.trace);
  check_bool "has reissued" true
    (List.exists (fun rr -> rr.E.reissued_questions > 0) r.E.trace);
  match Ser.result_of_json (Ser.result_to_json r) with
  | Ok r' -> check_bool "roundtrip" true (r = r')
  | Error e -> Alcotest.fail e

(* Round records written before the deadline fields existed must still
   load, defaulting to the historical semantics: nothing unanswered,
   nothing reissued, no deadline hit. *)
let test_round_pre_deadline_compat () =
  let r = sample_result 5 in
  let strip_round = function
    | J.Obj fields ->
        J.Obj
          (List.filter
             (fun (k, _) ->
               k <> "unanswered_questions" && k <> "reissued_questions"
               && k <> "deadline_hit")
             fields)
    | j -> j
  in
  let stripped =
    match Ser.result_to_json r with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "trace", J.List rounds -> (k, J.List (List.map strip_round rounds))
               | _ -> (k, v))
             fields)
    | _ -> assert false
  in
  match Ser.result_of_json stripped with
  | Ok r' -> check_bool "old trace decodes with defaults" true (r = r')
  | Error e -> Alcotest.fail e

(* --- latency models and adaptive results ---------------------------------- *)

let test_model_roundtrip () =
  List.iter
    (fun m ->
      match Ser.model_of_json (Ser.model_to_json m) with
      | Ok m' -> check_bool "roundtrip" true (Model.equal m m')
      | Error e -> Alcotest.fail e)
    [
      Model.linear ~delta:239.8 ~alpha:0.0620;
      Model.power ~delta:50.0 ~alpha:3.0 ~p:1.2;
      Model.piecewise [| (1, 100.0); (10, 180.0); (50, 420.0) |];
    ]

let test_model_custom_rejected () =
  Alcotest.check_raises "no serial form for closures"
    (Invalid_argument "Serialize.model_to_json: Custom models are closures")
    (fun () ->
      ignore (Ser.model_to_json (Model.Custom (fun q -> float_of_int q))))

(* A document carrying a NaN parameter must decode to Error through the
   validating constructors — never to a poisoned in-memory model. *)
let test_model_bad_documents_rejected () =
  let reject what doc =
    match Ser.model_of_json doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  reject "NaN delta"
    (J.Obj
       [
         ("kind", J.String "linear");
         ("delta", J.Float Float.nan);
         ("alpha", J.Float 1.0);
       ]);
  reject "infinite alpha"
    (J.Obj
       [
         ("kind", J.String "power");
         ("delta", J.Float 1.0);
         ("alpha", J.Float Float.infinity);
         ("p", J.Float 1.0);
       ]);
  reject "unknown kind" (J.Obj [ ("kind", J.String "spline") ])

let sample_adaptive_result () =
  let module A = Crowdmax_runtime.Adaptive in
  let problem = Problem.create ~elements:100 ~budget:150 ~latency:model in
  let truth = G.random (Rng.create 42) 100 in
  A.run
    ~source:
      (E.Simulated
         {
           platform = Crowdmax_crowd.Platform.create ();
           rwl = { Crowdmax_crowd.Rwl.votes = 3; error = Crowdmax_crowd.Worker.Uniform 0.15 };
         })
    ~refit:(A.Every_k_rounds 1) (Rng.create 41) ~problem
    ~selection:S.tournament truth

let test_adaptive_result_roundtrip () =
  let module A = Crowdmax_runtime.Adaptive in
  let r = sample_adaptive_result () in
  (* the sample must exercise the closed-loop fields *)
  check_bool "re-fit happened" true (r.A.refits >= 1);
  check_bool "installed a non-default model" true
    (not (Model.equal r.A.final_model model));
  let text = J.to_string ~pretty:true (Ser.adaptive_result_to_json r) in
  match Ser.adaptive_result_of_json (J.of_string text) with
  | Ok r' ->
      check_bool "engine result" true (r.A.engine_result = r'.A.engine_result);
      check_bool "counters" true
        (r.A.replans = r'.A.replans && r.A.refits = r'.A.refits
        && r.A.drift_detected = r'.A.drift_detected
        && r.A.replans_on_drift = r'.A.replans_on_drift);
      check_bool "final model" true (Model.equal r.A.final_model r'.A.final_model);
      check_bool "observation window non-trivial" true
        (List.length r.A.observations >= 2);
      check_bool "observations round-trip" true
        (r.A.observations = r'.A.observations)
  | Error e -> Alcotest.fail e

(* Dumps written before the re-fit loop existed carry neither the
   counters nor the final model; they decode with the historical
   semantics (never re-fit, planned with paper_mturk throughout). *)
let test_adaptive_pre_refit_compat () =
  let module A = Crowdmax_runtime.Adaptive in
  let r = sample_adaptive_result () in
  let stripped =
    match Ser.adaptive_result_to_json r with
    | J.Obj fields ->
        J.Obj
          (List.filter
             (fun (k, _) ->
               k <> "refits" && k <> "drift_detected"
               && k <> "replans_on_drift" && k <> "final_model")
             fields)
    | _ -> assert false
  in
  match Ser.adaptive_result_of_json stripped with
  | Ok r' ->
      check_bool "counters default to 0" true
        (r'.A.refits = 0 && r'.A.drift_detected = 0
        && r'.A.replans_on_drift = 0);
      check_bool "replans kept" true (r'.A.replans = r.A.replans);
      check_bool "model defaults to paper_mturk" true
        (Model.equal r'.A.final_model Model.paper_mturk)
  | Error e -> Alcotest.fail e

(* --- metrics documents ---------------------------------------------------- *)

module M = Crowdmax_obs.Metrics

let sample_snapshot () =
  let t = M.create () in
  M.add (M.counter t ~section:"planner" "plans") 1;
  M.add (M.counter t ~section:"engine" "questions_posted") 210;
  M.record_peak (M.peak t ~section:"platform" "in_flight_peak") 17;
  let h =
    M.histogram t ~section:"platform" "arrival_seconds"
      ~buckets:[| 160.0; 300.0; 900.0 |]
  in
  List.iter (M.observe h) [ 170.5; 250.0; 1200.0 ];
  ignore (M.time (M.span t ~section:"planner" "plan_seconds") (fun () -> ()));
  M.snapshot t

let test_metrics_roundtrip () =
  let snap = sample_snapshot () in
  match Ser.metrics_of_json (Ser.metrics_to_json snap) with
  | Ok snap' -> check_bool "roundtrip" true (M.equal snap snap')
  | Error e -> Alcotest.fail e

let test_metrics_roundtrip_through_text () =
  let snap = sample_snapshot () in
  let text = J.to_string ~pretty:true (Ser.metrics_to_json snap) in
  match Ser.metrics_of_json (J.of_string text) with
  | Ok snap' -> check_bool "text roundtrip" true (M.equal snap snap')
  | Error e -> Alcotest.fail e

let test_aggregate_with_metrics_field () =
  let snap = sample_snapshot () in
  let agg =
    {
      E.runs = 5;
      mean_latency = 400.0;
      stddev_latency = 10.0;
      median_latency = 398.0;
      p95_latency = 420.0;
      singleton_rate = 1.0;
      correct_rate = 0.8;
      mean_questions = 42.0;
      mean_rounds = 2.0;
      timing = { E.jobs = 1; wall_seconds = 0.5; runs_per_sec = 10.0 };
    }
  in
  let doc = Ser.aggregate_to_json ~metrics:snap agg in
  (match Ser.aggregate_of_json doc with
  | Ok agg' -> check_bool "aggregate fields unaffected" true (agg = agg')
  | Error e -> Alcotest.fail e);
  match Ser.aggregate_metrics_of_json doc with
  | Ok snap' -> check_bool "metrics field decodes" true (M.equal snap snap')
  | Error e -> Alcotest.fail e

(* Aggregates dumped before the observability layer have no "metrics"
   field; they must decode to the empty snapshot, not an error. *)
let test_aggregate_metrics_absent_compat () =
  let doc = J.Obj [ ("runs", J.int 3) ] in
  match Ser.aggregate_metrics_of_json doc with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty snapshot"
  | Error e -> Alcotest.fail e

let test_metrics_bad_documents_rejected () =
  let reject what doc =
    match Ser.metrics_of_json doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  reject "not an object" (J.List []);
  reject "no schema" (J.Obj [ ("engine", J.Obj []) ]);
  reject "wrong schema"
    (J.Obj [ ("schema", J.String "crowdmax-metrics/v999") ]);
  reject "unknown kind"
    (J.Obj
       [
         ("schema", J.String Ser.metrics_schema);
         ("engine", J.Obj [ ("x", J.Obj [ ("kind", J.String "gauge") ]) ]);
       ]);
  reject "histogram counts length"
    (J.Obj
       [
         ("schema", J.String Ser.metrics_schema);
         ( "engine",
           J.Obj
             [
               ( "h",
                 J.Obj
                   [
                     ("kind", J.String "histogram");
                     ("buckets", J.List [ J.Float 1.0 ]);
                     ("counts", J.List [ J.int 1 ]);
                     ("total", J.int 1);
                     ("sum", J.Float 0.5);
                   ] );
             ] );
       ])

let test_missing_field_reported () =
  match Ser.result_of_json (J.Obj [ ("chosen", J.int 1) ]) with
  | Error e -> check_bool "names the field" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted incomplete document"

let test_ill_typed_field_reported () =
  let r = sample_result 3 in
  let doc = Ser.result_to_json r in
  let broken =
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "correct" then (k, J.int 5) else (k, v))
             fields)
    | _ -> assert false
  in
  match Ser.result_of_json broken with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted ill-typed field"

let suite =
  [
    ( "serialize",
      [
        tc "result roundtrip" `Quick test_result_roundtrip;
        tc "result through text" `Quick test_result_roundtrip_through_text;
        tc "aggregate roundtrip" `Quick test_aggregate_roundtrip;
        tc "aggregate pre-timing compat" `Quick
          test_aggregate_pre_timing_compat;
        tc "deadline result roundtrip" `Quick test_deadline_result_roundtrip;
        tc "round pre-deadline compat" `Quick test_round_pre_deadline_compat;
        tc "model roundtrip" `Quick test_model_roundtrip;
        tc "model custom rejected" `Quick test_model_custom_rejected;
        tc "bad model documents rejected" `Quick
          test_model_bad_documents_rejected;
        tc "adaptive result roundtrip" `Quick test_adaptive_result_roundtrip;
        tc "adaptive pre-refit compat" `Quick test_adaptive_pre_refit_compat;
        tc "metrics roundtrip" `Quick test_metrics_roundtrip;
        tc "metrics through text" `Quick test_metrics_roundtrip_through_text;
        tc "aggregate with metrics field" `Quick
          test_aggregate_with_metrics_field;
        tc "aggregate without metrics field" `Quick
          test_aggregate_metrics_absent_compat;
        tc "bad metrics documents rejected" `Quick
          test_metrics_bad_documents_rejected;
        tc "missing field" `Quick test_missing_field_reported;
        tc "ill-typed field" `Quick test_ill_typed_field_reported;
      ] );
  ]
