module M = Crowdmax_obs.Metrics

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let b1 = M.bucket_spec [| 1.0 |]
let b12 = M.bucket_spec [| 1.0; 2.0 |]
let b14 = M.bucket_spec [| 1.0; 4.0 |]

let test_disabled_is_inert () =
  let t = M.disabled in
  check_bool "disabled" false (M.enabled t);
  let c = M.counter t ~section:"engine" "x" in
  let p = M.peak t ~section:"engine" "y" in
  let h = M.histogram t ~section:"engine" "z" ~buckets:b1 in
  M.incr c;
  M.add c 5;
  M.record_peak p 3;
  M.observe h 0.5;
  check_int "no entries" 0 (List.length (M.snapshot t))

let test_counter_and_peak () =
  let t = M.create () in
  check_bool "enabled" true (M.enabled t);
  let c = M.counter t ~section:"engine" "posted" in
  M.incr c;
  M.add c 4;
  let p = M.peak t ~section:"platform" "depth" in
  M.record_peak p 7;
  M.record_peak p 3;
  let snap = M.snapshot t in
  check_int "two entries" 2 (List.length snap);
  (match M.find snap ~section:"engine" "posted" with
  | Some (M.Count 5) -> ()
  | _ -> Alcotest.fail "counter");
  match M.find snap ~section:"platform" "depth" with
  | Some (M.Peak 7) -> ()
  | _ -> Alcotest.fail "peak"

let test_same_name_same_instrument () =
  let t = M.create () in
  let a = M.counter t ~section:"s" "n" in
  let b = M.counter t ~section:"s" "n" in
  M.incr a;
  M.incr b;
  match M.find (M.snapshot t) ~section:"s" "n" with
  | Some (M.Count 2) -> ()
  | _ -> Alcotest.fail "handles must share the cell"

let test_kind_clash_rejected () =
  let t = M.create () in
  ignore (M.counter t ~section:"s" "n");
  Alcotest.check_raises "clash"
    (Invalid_argument
       "Metrics: s/n is already registered as a different instrument kind")
    (fun () -> ignore (M.peak t ~section:"s" "n"))

let test_add_negative_rejected () =
  let t = M.create () in
  let c = M.counter t ~section:"s" "n" in
  Alcotest.check_raises "negative"
    (Invalid_argument "Metrics.add: negative increment") (fun () -> M.add c (-1))

let test_histogram_buckets () =
  let t = M.create () in
  let h =
    M.histogram t ~section:"s" "h" ~buckets:(M.bucket_spec [| 1.0; 2.0; 4.0 |])
  in
  List.iter (M.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  match M.find (M.snapshot t) ~section:"s" "h" with
  | Some (M.Histogram { buckets; counts; total; sum }) ->
      Alcotest.check
        Alcotest.(array (float 1e-9))
        "bounds kept" [| 1.0; 2.0; 4.0 |] buckets;
      (* <= 1 -> 2 observations (upper bounds are inclusive), (1,2] -> 1,
         (2,4] -> 1, overflow -> 1 *)
      Alcotest.check Alcotest.(array int) "counts" [| 2; 1; 1; 1 |] counts;
      check_int "total" 5 total;
      Alcotest.check (Alcotest.float 1e-9) "sum" 106.0 sum
  | _ -> Alcotest.fail "histogram"

let test_histogram_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Metrics.bucket_spec: empty bucket array") (fun () ->
      ignore (M.bucket_spec [||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument
       "Metrics.bucket_spec: bucket bounds must be strictly increasing")
    (fun () -> ignore (M.bucket_spec [| 2.0; 1.0 |]))

let test_span_accumulates () =
  let t = M.create () in
  let s = M.span t ~section:"planner" "work" in
  let v = M.time s (fun () -> 41 + 1) in
  check_int "returns the result" 42 v;
  (match M.find (M.snapshot t) ~section:"planner" "work" with
  | Some (M.Real_seconds sec) -> check_bool "non-negative" true (sec >= 0.0)
  | _ -> Alcotest.fail "span");
  (* Exceptions still record. *)
  (try M.time s (fun () -> failwith "boom") with Failure _ -> ());
  match M.find (M.snapshot t) ~section:"planner" "work" with
  | Some (M.Real_seconds _) -> ()
  | _ -> Alcotest.fail "span after exception"

let test_snapshot_sorted_and_isolated () =
  let t = M.create () in
  let b = M.counter t ~section:"b" "z" in
  let a = M.counter t ~section:"a" "y" in
  let a2 = M.counter t ~section:"a" "x" in
  M.incr a;
  M.incr b;
  M.incr a2;
  let snap = M.snapshot t in
  Alcotest.check
    Alcotest.(list (pair string string))
    "sorted by (section, name)"
    [ ("a", "x"); ("a", "y"); ("b", "z") ]
    (List.map (fun e -> (e.M.section, e.M.name)) snap);
  (* Deep copy: recording after the snapshot must not mutate it. *)
  M.incr a;
  match M.find snap ~section:"a" "y" with
  | Some (M.Count 1) -> ()
  | _ -> Alcotest.fail "snapshot mutated by later recording"

let snap_of f =
  let t = M.create () in
  f t;
  M.snapshot t

let test_merge () =
  let s1 =
    snap_of (fun t ->
        M.add (M.counter t ~section:"e" "c") 2;
        M.record_peak (M.peak t ~section:"e" "p") 5;
        M.observe (M.histogram t ~section:"e" "h" ~buckets:b12) 0.5)
  in
  let s2 =
    snap_of (fun t ->
        M.add (M.counter t ~section:"e" "c") 3;
        M.record_peak (M.peak t ~section:"e" "p") 4;
        M.observe (M.histogram t ~section:"e" "h" ~buckets:b12) 1.5;
        M.incr (M.counter t ~section:"x" "only_here"))
  in
  let m = M.merge [ s1; s2 ] in
  (match M.find m ~section:"e" "c" with
  | Some (M.Count 5) -> ()
  | _ -> Alcotest.fail "counts add");
  (match M.find m ~section:"e" "p" with
  | Some (M.Peak 5) -> ()
  | _ -> Alcotest.fail "peaks max");
  (match M.find m ~section:"e" "h" with
  | Some (M.Histogram { counts; total; _ }) ->
      Alcotest.check Alcotest.(array int) "bucket-wise add" [| 1; 1; 0 |] counts;
      check_int "total" 2 total
  | _ -> Alcotest.fail "histograms add");
  (match M.find m ~section:"x" "only_here" with
  | Some (M.Count 1) -> ()
  | _ -> Alcotest.fail "union keeps singletons");
  check_bool "merge [] empty" true (M.equal [] (M.merge []))

let test_merge_rejects_mismatches () =
  let s1 =
    snap_of (fun t ->
        M.observe (M.histogram t ~section:"e" "h" ~buckets:b1) 0.5)
  in
  let s2 =
    snap_of (fun t ->
        M.observe
          (M.histogram t ~section:"e" "h" ~buckets:(M.bucket_spec [| 2.0 |]))
          0.5)
  in
  Alcotest.check_raises "bucket mismatch"
    (Invalid_argument "Metrics.merge: e/h has mismatched histogram buckets")
    (fun () -> ignore (M.merge [ s1; s2 ]));
  let s3 = snap_of (fun t -> M.incr (M.counter t ~section:"e" "h")) in
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.merge: e/h has conflicting instrument kinds")
    (fun () -> ignore (M.merge [ s1; s3 ]))

let test_simulated_only () =
  let s =
    snap_of (fun t ->
        M.incr (M.counter t ~section:"e" "c");
        ignore (M.time (M.span t ~section:"e" "s") (fun () -> ())))
  in
  let sim = M.simulated_only s in
  check_int "span stripped" 1 (List.length sim);
  match M.find sim ~section:"e" "c" with
  | Some (M.Count 1) -> ()
  | _ -> Alcotest.fail "counter kept"

(* A registry that is reused and reset between passes must be
   indistinguishable — snapshot for snapshot — from a fresh registry
   running the same pass. [Engine.replicate_with_metrics] shares one
   registry per chunk of runs on the strength of this. *)
let test_reset_reuse_equals_fresh () =
  let pass t x =
    M.add (M.counter t ~section:"e" "c") x;
    M.record_peak (M.peak t ~section:"e" "p") (2 * x);
    M.observe (M.histogram t ~section:"e" "h" ~buckets:b14)
      (float_of_int x)
  in
  let reused = M.create () in
  List.iter
    (fun x ->
      M.reset reused;
      pass reused x;
      let fresh = M.create () in
      pass fresh x;
      check_bool
        (Printf.sprintf "pass %d matches fresh" x)
        true
        (M.equal (M.snapshot reused) (M.snapshot fresh)))
    [ 3; 1; 7 ];
  M.reset M.disabled (* no-op, must not raise *)

let test_absorb_equals_merge () =
  let fill t x =
    M.add (M.counter t ~section:"e" "c") x;
    M.record_peak (M.peak t ~section:"e" "p") (10 - x);
    M.observe (M.histogram t ~section:"e" "h" ~buckets:b14)
      (float_of_int x);
    M.incr (M.counter t ~section:(if x mod 2 = 0 then "a" else "z") "extra")
  in
  let by_merge = ref [] in
  let acc = M.create () in
  List.iter
    (fun x ->
      let t = M.create () in
      fill t x;
      by_merge := M.merge [ !by_merge; M.snapshot t ];
      M.absorb ~into:acc t)
    [ 2; 5; 8 ];
  check_bool "same result" true (M.equal !by_merge (M.snapshot acc));
  (* disabled on either side is a no-op *)
  M.absorb ~into:acc M.disabled;
  M.absorb ~into:M.disabled acc;
  check_bool "disabled no-op" true (M.equal !by_merge (M.snapshot acc));
  (* clashes are rejected like merge's *)
  let bad = M.create () in
  M.incr (M.counter bad ~section:"e" "h");
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: e/h is already registered as a different instrument kind")
    (fun () -> M.absorb ~into:acc bad);
  let bad_buckets = M.create () in
  M.observe
    (M.histogram bad_buckets ~section:"e" "h" ~buckets:(M.bucket_spec [| 9.0 |]))
    1.0;
  Alcotest.check_raises "bucket mismatch"
    (Invalid_argument "Metrics.absorb: e/h has mismatched histogram buckets")
    (fun () -> M.absorb ~into:acc bad_buckets)

let test_equal () =
  let mk () =
    snap_of (fun t ->
        M.add (M.counter t ~section:"e" "c") 3;
        M.observe (M.histogram t ~section:"e" "h" ~buckets:b1) 0.5)
  in
  check_bool "equal snapshots" true (M.equal (mk ()) (mk ()));
  let other = snap_of (fun t -> M.add (M.counter t ~section:"e" "c") 4) in
  check_bool "different values" false (M.equal (mk ()) other)

let suite =
  [
    ( "metrics",
      [
        tc "disabled registry is inert" `Quick test_disabled_is_inert;
        tc "counter and peak" `Quick test_counter_and_peak;
        tc "same name, same instrument" `Quick test_same_name_same_instrument;
        tc "kind clash rejected" `Quick test_kind_clash_rejected;
        tc "negative add rejected" `Quick test_add_negative_rejected;
        tc "histogram buckets" `Quick test_histogram_buckets;
        tc "histogram validation" `Quick test_histogram_validation;
        tc "span accumulates" `Quick test_span_accumulates;
        tc "snapshot sorted + isolated" `Quick test_snapshot_sorted_and_isolated;
        tc "merge" `Quick test_merge;
        tc "merge rejects mismatches" `Quick test_merge_rejects_mismatches;
        tc "simulated_only" `Quick test_simulated_only;
        tc "reset reuse equals fresh" `Quick test_reset_reuse_equals_fresh;
        tc "absorb equals merge" `Quick test_absorb_equals_merge;
        tc "equal" `Quick test_equal;
      ] );
  ]
