module Ser = Crowdmax_runtime.Serialize
module E = Crowdmax_runtime.Engine
module J = Crowdmax_util.Json
module Model = Crowdmax_latency.Model

let tc = Alcotest.test_case
let check_bool = Alcotest.check Alcotest.bool

let test_model_custom_rejected () =
  Alcotest.check_raises "no serial form for closures"
    (Invalid_argument "Serialize.model_to_json: Custom models are closures")
    (fun () ->
      ignore (Ser.model_to_json (Model.Custom (fun q -> float_of_int q))))

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

(* One metrics document whose only entry is [entry]. *)
let metrics_doc entry =
  J.Obj
    [
      ("schema", J.String Ser.metrics_schema);
      ("engine", J.Obj [ ("x", entry) ]);
    ]

let test_missing_field_reported () =
  match Ser.metrics_of_json (metrics_doc (J.Obj [ ("kind", J.String "count") ])) with
  | Error e ->
      Alcotest.(check string) "names the field"
        "missing or ill-typed field \"value\"" e
  | Ok _ -> Alcotest.fail "accepted incomplete document"

let test_ill_typed_field_reported () =
  let doc =
    metrics_doc
      (J.Obj [ ("kind", J.String "count"); ("value", J.String "five") ])
  in
  match Ser.metrics_of_json doc with
  | Error e ->
      Alcotest.(check string) "names the field"
        "missing or ill-typed field \"value\"" e
  | Ok _ -> Alcotest.fail "accepted ill-typed field"

let suite =
  [
    ( "serialize",
      [
        tc "model custom rejected" `Quick test_model_custom_rejected;
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
