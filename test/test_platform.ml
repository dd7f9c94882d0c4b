module P = Crowdmax_crowd.Platform
module W = Crowdmax_crowd.Worker
module Rng = Crowdmax_util.Rng
module Stats = Crowdmax_util.Stats

let tc = Alcotest.test_case
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let test_zero_batch_costs_overhead () =
  let p = P.create () in
  let rng = Rng.create 3 in
  Alcotest.check (Alcotest.float 1e-9) "overhead only"
    (P.config p).P.post_overhead
    (P.batch_latency p rng 0)

let test_negative_rejected () =
  let p = P.create () in
  let rng = Rng.create 3 in
  Alcotest.check_raises "negative" (Invalid_argument "Platform: negative batch size")
    (fun () -> ignore (P.batch_latency p rng (-1)))

let test_bad_tail_rate_rejected () =
  let cfg = { P.default_config with P.tail_rate = 0.0 } in
  Alcotest.check_raises "tail"
    (Invalid_argument "Platform.create: tail_rate must be finite and > 0")
    (fun () -> ignore (P.create ~config:cfg ()))

let test_latency_exceeds_overhead () =
  let p = P.create () in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    check_bool "above overhead" true
      (P.batch_latency p rng 10 > (P.config p).P.post_overhead)
  done

let mean_latency p rng q runs =
  Stats.mean (Array.init runs (fun _ -> P.batch_latency p rng q))

let test_fig11a_shape () =
  (* small batches fast; mid-size slower; very large slightly cheaper
     than the peak (the Fig. 11(a) dip) *)
  let p = P.create () in
  let rng = Rng.create 7 in
  let t40 = mean_latency p rng 40 30 in
  let t320 = mean_latency p rng 320 30 in
  let t1280 = mean_latency p rng 1280 30 in
  check_bool "40 < 320" true (t40 < t320);
  check_bool "1280 <= 320 (dip)" true (t1280 <= t320 +. 5.0)

let test_calibration_near_paper () =
  (* the fitted linear estimate must land near the paper's 239 + 0.06q *)
  let f = Crowdmax_experiments.Fig11a.run ~runs_per_size:10 ~seed:42 () in
  check_bool "delta in range" true
    (f.Crowdmax_experiments.Fig11a.delta > 150.0
    && f.Crowdmax_experiments.Fig11a.delta < 330.0);
  check_bool "alpha in range" true
    (f.Crowdmax_experiments.Fig11a.alpha > 0.0
    && f.Crowdmax_experiments.Fig11a.alpha < 0.2)

let test_deterministic_given_seed () =
  let p = P.create () in
  let a = P.batch_latency p (Rng.create 99) 64 in
  let b = P.batch_latency p (Rng.create 99) 64 in
  Alcotest.check (Alcotest.float 1e-12) "reproducible" a b

let diurnal_cfg phase =
  {
    P.default_config with
    P.diurnal_amplitude = 0.95;
    diurnal_period = 4000.0;
    diurnal_phase = phase;
    (* lean on the tail so day/night dominates the timing *)
    base_rate = 0.01;
    attract_per_question = 0.0001;
  }

let test_diurnal_peak_beats_trough () =
  (* posting at peak availability (phase period/4) must be faster on
     average than posting at the trough (3*period/4) *)
  let peak = P.create ~config:(diurnal_cfg 1000.0) () in
  let trough = P.create ~config:(diurnal_cfg 3000.0) () in
  let rng = Rng.create 31 in
  let mean p = Stats.mean (Array.init 40 (fun _ -> P.batch_latency p rng 60)) in
  let tp = mean peak and tt = mean trough in
  check_bool
    (Printf.sprintf "peak %.0f < trough %.0f" tp tt)
    true (tp < tt)

let test_diurnal_zero_amplitude_matches_steady_stats () =
  (* amplitude 0 takes the direct-draw path; a tiny amplitude must give
     statistically similar latencies (same underlying process) *)
  let steady = P.create () in
  let nearly =
    P.create
      ~config:{ P.default_config with P.diurnal_amplitude = 0.01 }
      ()
  in
  let rng = Rng.create 37 in
  let mean p = Stats.mean (Array.init 60 (fun _ -> P.batch_latency p rng 80)) in
  let a = mean steady and b = mean nearly in
  check_bool
    (Printf.sprintf "means close: %.1f vs %.1f" a b)
    true
    (Float.abs (a -. b) /. a < 0.1)

(* --- deadline edges ----------------------------------------------------- *)

let test_deadline_before_first_arrival () =
  (* a deadline tighter than the posting overhead: nothing can complete,
     the caller waited exactly the deadline, and the whole batch is
     reported unassigned *)
  let p = P.create () in
  let rng = Rng.create 41 in
  let overhead = (P.config p).P.post_overhead in
  let deadline = overhead /. 2.0 in
  let fired = ref 0 in
  let report =
    P.simulate ~deadline p rng 8 ~on_complete:(fun _ _ -> incr fired)
  in
  check_int "nothing completed" 0 report.P.completed;
  check_int "no callbacks" 0 !fired;
  check_int "everything unassigned" 8 report.P.unassigned;
  check_int "nothing in flight" 0 report.P.in_flight;
  check_bool "deadline hit" true report.P.deadline_hit;
  Alcotest.check (Alcotest.float 1e-9) "latency = deadline" deadline
    report.P.latency

let test_deadline_single_question () =
  let p = P.create () in
  (* generous deadline: the one question completes normally *)
  let r1 =
    P.simulate ~deadline:1.0e7 p (Rng.create 43) 1 ~on_complete:(fun _ _ -> ())
  in
  check_int "q=1 completed" 1 r1.P.completed;
  check_bool "no deadline hit" false r1.P.deadline_hit;
  (* and the partition identity holds when it is cut off instead *)
  let r2 =
    P.simulate ~deadline:10.0 p (Rng.create 43) 1 ~on_complete:(fun _ _ -> ())
  in
  check_int "partition" 1 (r2.P.completed + r2.P.in_flight + r2.P.unassigned)

let test_deadline_infinity_bit_identical () =
  (* deadline = infinity must follow the exact historical code path:
     same draws, bit-identical latency *)
  let p = P.create () in
  let a = P.batch_latency p (Rng.create 47) 64 in
  let b = P.batch_latency ~deadline:Float.infinity p (Rng.create 47) 64 in
  check_bool "bit-identical" true (Float.equal a b);
  let r = P.simulate ~deadline:Float.infinity p (Rng.create 47) 64
      ~on_complete:(fun _ _ -> ()) in
  check_bool "simulate agrees" true (Float.equal a r.P.latency);
  check_int "all completed" 64 r.P.completed;
  check_bool "no deadline hit" false r.P.deadline_hit

let test_deadline_partition_and_monotone () =
  (* completed + in_flight + unassigned = q at any cutoff, and a longer
     deadline never completes fewer questions (same seed = same event
     stream prefix) *)
  let p = P.create () in
  let completed_at deadline =
    let r = P.simulate ~deadline p (Rng.create 53) 40
        ~on_complete:(fun _ _ -> ()) in
    check_int
      (Printf.sprintf "partition at %.0f" deadline)
      40
      (r.P.completed + r.P.in_flight + r.P.unassigned);
    check_bool "latency bounded by deadline" true (r.P.latency <= deadline);
    r.P.completed
  in
  let prev = ref (-1) in
  List.iter
    (fun d ->
      let c = completed_at d in
      check_bool (Printf.sprintf "monotone at %.0f" d) true (c >= !prev);
      prev := c)
    [ 50.0; 150.0; 300.0; 600.0; 2000.0; 100000.0 ]

let test_deadline_validation () =
  let p = P.create () in
  Alcotest.check_raises "zero deadline"
    (Invalid_argument "Platform: deadline must be > 0") (fun () ->
      ignore
        (P.simulate ~deadline:0.0 p (Rng.create 3) 4
           ~on_complete:(fun _ _ -> ())));
  Alcotest.check_raises "nan deadline"
    (Invalid_argument "Platform: deadline must be > 0") (fun () ->
      ignore (P.batch_latency ~deadline:Float.nan p (Rng.create 3) 4))

let test_tally_validation () =
  let p = P.create () in
  Alcotest.check_raises "empty tally"
    (Invalid_argument "Platform: empty tally for a non-empty batch")
    (fun () -> ignore (P.simulate ~tally:[||] p (Rng.create 3) 4));
  Alcotest.check_raises "empty shared tally"
    (Invalid_argument "Platform: empty tally for a non-empty batch")
    (fun () ->
      ignore
        (P.simulate_shared ~tallies:[| [| 0 |]; [||] |] p (Rng.create 3)
           ~pick:P.Fifo [| 2; 3 |]));
  Alcotest.check_raises "tallies length"
    (Invalid_argument "Platform.simulate_shared: tallies length mismatch")
    (fun () ->
      ignore
        (P.simulate_shared ~tallies:[| [| 0 |] |] p (Rng.create 3)
           ~pick:P.Fifo [| 2; 3 |]));
  (* An empty batch takes an empty tally and credits nothing. *)
  let tally = [||] in
  let r = P.simulate ~tally p (Rng.create 3) 0 in
  Alcotest.(check int) "empty batch" 0 r.P.completed

let test_deadline_partial_deterministic () =
  (* A cutoff inside the burst window: the callbacks agree with the
     report, none lands after the deadline, and the partial run is
     reproducible from the seed, completion stream included. *)
  let p = P.create () in
  let run () =
    let answers = ref [] in
    let report =
      P.simulate ~deadline:165.0 p (Rng.create 61) 20 ~on_complete:(fun idx t ->
          answers := (idx, t) :: !answers)
    in
    (List.rev !answers, report)
  in
  let answers, report = run () in
  check_int "answers = completed" report.P.completed (List.length answers);
  check_bool "some made it" true (report.P.completed > 0);
  check_bool "not everything made it" true (report.P.completed < 20);
  List.iter
    (fun (_, t) -> check_bool "answered before deadline" true (t <= 165.0))
    answers;
  let answers2, report2 = run () in
  check_bool "deterministic report" true (report = report2);
  check_bool "deterministic answers" true (answers = answers2)

(* --- arrival-process regressions ---------------------------------------- *)

let draws_of f =
  let rng = Rng.create 67 in
  let base = Rng.copy rng in
  let v = f rng in
  (v, Rng.draws_since ~base rng)

let test_diurnal_draw_budget_bounded () =
  (* Regression for the diurnal rng burn: with a huge dead interval
     before the batch is visible, the thinning loop used to walk
     [0, post_overhead) proposal by proposal — hundreds of thousands of
     rejected draws. The clamp starts it at [post_overhead], so the
     draw budget per arrival is a small geometric, independent of how
     large the overhead is. *)
  let cfg =
    {
      P.default_config with
      P.post_overhead = 5.0e5;
      diurnal_amplitude = 0.9;
      diurnal_period = 4000.0;
      diurnal_phase = 0.0;
    }
  in
  let p = P.create ~config:cfg () in
  for seed = 1 to 50 do
    let rng = Rng.create seed in
    let base = Rng.copy rng in
    let t = P.next_arrival p rng ~q:100 ~after:0.0 in
    let d = Rng.draws_since ~base rng in
    check_bool
      (Printf.sprintf "seed %d: %d draws" seed d)
      true (d <= 1000);
    check_bool "arrival after visibility" true (t >= cfg.P.post_overhead)
  done

let test_arrival_clamp_equivalence () =
  (* The clamp must not change the distribution: starting the draw at 0
     and at [post_overhead] are the same process (zero rate in between),
     so with the same seed they must produce the same arrival from the
     same number of draws — on the steady path and the diurnal path. *)
  let check_cfg label cfg =
    let p = P.create ~config:cfg () in
    let post = cfg.P.post_overhead in
    let t0, d0 = draws_of (fun rng -> P.next_arrival p rng ~q:60 ~after:0.0) in
    let t1, d1 =
      draws_of (fun rng -> P.next_arrival p rng ~q:60 ~after:post)
    in
    check_bool (label ^ ": same arrival") true (Float.equal t0 t1);
    check_int (label ^ ": same draw count") d0 d1
  in
  check_cfg "steady" P.default_config;
  check_cfg "diurnal"
    {
      P.default_config with
      P.diurnal_amplitude = 0.6;
      diurnal_period = 4000.0;
      diurnal_phase = 1000.0;
    }

let test_zero_batch_deadlines () =
  (* q = 0 never assigns anything, but the caller still waits: for the
     posting overhead normally, or only until a tighter deadline. *)
  let p = P.create () in
  let post = (P.config p).P.post_overhead in
  let run deadline =
    P.simulate ~deadline p (Rng.create 3) 0 ~on_complete:(fun _ _ ->
        Alcotest.fail "q=0 completion")
  in
  let tight = run (post /. 3.0) in
  Alcotest.check (Alcotest.float 1e-9) "tight: latency = deadline"
    (post /. 3.0) tight.P.latency;
  check_bool "tight: deadline hit" true tight.P.deadline_hit;
  check_int "tight: partition" 0
    (tight.P.completed + tight.P.in_flight + tight.P.unassigned);
  let loose = run (post *. 10.0) in
  Alcotest.check (Alcotest.float 1e-9) "loose: latency = overhead" post
    loose.P.latency;
  check_bool "loose: no deadline hit" false loose.P.deadline_hit;
  let inf = run Float.infinity in
  Alcotest.check (Alcotest.float 1e-9) "infinite: latency = overhead" post
    inf.P.latency;
  check_bool "infinite: no deadline hit" false inf.P.deadline_hit

let test_scratch_reuse_bit_identical () =
  (* A reused scratch must be invisible: consecutive runs through one
     scratch (growing, shrinking, deadline-cut) give bit-identical
     reports to fresh-buffer runs with the same seeds. *)
  let p = P.create () in
  let plan rng =
    [
      P.simulate p rng 80 ~on_complete:(fun _ _ -> ());
      P.simulate p rng 5 ~on_complete:(fun _ _ -> ());
      P.simulate ~deadline:200.0 p rng 40 ~on_complete:(fun _ _ -> ());
    ]
  in
  let plan_scratch rng =
    let s = P.scratch () in
    [
      P.simulate ~scratch:s p rng 80 ~on_complete:(fun _ _ -> ());
      P.simulate ~scratch:s p rng 5 ~on_complete:(fun _ _ -> ());
      P.simulate ~deadline:200.0 ~scratch:s p rng 40 ~on_complete:(fun _ _ -> ());
    ]
  in
  let fresh = plan (Rng.create 71) in
  let reused = plan_scratch (Rng.create 71) in
  List.iter2
    (fun (a : P.report) (b : P.report) ->
      check_bool "latency bit-identical" true (Float.equal a.P.latency b.P.latency);
      check_int "completed" a.P.completed b.P.completed;
      check_int "in_flight" a.P.in_flight b.P.in_flight;
      check_int "unassigned" a.P.unassigned b.P.unassigned;
      check_bool "deadline_hit" a.P.deadline_hit b.P.deadline_hit)
    fresh reused

module M = Crowdmax_obs.Metrics

let platform_count snap name =
  match M.find snap ~section:"platform" name with
  | Some (M.Count n) -> n
  | _ -> Alcotest.fail ("missing platform counter " ^ name)

let test_events_drained_accounting () =
  (* The .mli promise: events_drained counts processed events only —
     exactly worker_arrivals + completions — including under a deadline
     that cuts the loop mid-batch. *)
  let p = P.create () in
  let m = M.create () in
  let fired = ref 0 in
  let r =
    (* 200 s cuts this seed mid-batch: some completions in, some not *)
    P.simulate ~deadline:200.0 ~metrics:m p (Rng.create 73) 40
      ~on_complete:(fun _ _ -> incr fired)
  in
  let snap = M.snapshot m in
  let events = platform_count snap "events_drained" in
  let arrivals = platform_count snap "worker_arrivals" in
  let completions = platform_count snap "completions" in
  check_bool "run was cut" true r.P.deadline_hit;
  check_int "events = arrivals + completions" events (arrivals + completions);
  check_int "completions = report.completed" r.P.completed completions;
  check_int "completions = callbacks" !fired completions;
  check_bool "some events processed" true (events > 0);
  (* A deadline before the first arrival processes no events at all:
     the observed-but-discarded first event is not counted. *)
  let m2 = M.create () in
  let overhead = (P.config p).P.post_overhead in
  let _ =
    P.simulate ~deadline:(overhead /. 2.0) ~metrics:m2 p (Rng.create 73) 8
      ~on_complete:(fun _ _ -> ())
  in
  let snap2 = M.snapshot m2 in
  check_int "cutoff before arrival: no events" 0
    (platform_count snap2 "events_drained");
  check_int "cutoff before arrival: no arrivals" 0
    (platform_count snap2 "worker_arrivals")

(* An amplitude of 1 (or more) drives the instantaneous arrival rate
   to zero or negative in the trough: thinning then silently never
   accepts and the stream freezes with no error. The constructor is
   the loud failure. *)
let test_diurnal_config_validation () =
  let amp a = { P.default_config with P.diurnal_amplitude = a } in
  let reject msg config =
    Alcotest.check_raises msg
      (Invalid_argument "Platform.create: diurnal_amplitude must be in [0, 1)")
      (fun () -> ignore (P.create ~config ()))
  in
  reject "amplitude 1 (rate hits zero)" (amp 1.0);
  reject "amplitude above 1 (rate goes negative)" (amp 1.5);
  reject "NaN amplitude" (amp Float.nan);
  reject "negative amplitude" (amp (-0.2));
  Alcotest.check_raises "NaN period"
    (Invalid_argument "Platform.create: diurnal_period must be finite and > 0")
    (fun () ->
      ignore
        (P.create
           ~config:{ (amp 0.5) with P.diurnal_period = Float.nan }
           ()));
  Alcotest.check_raises "NaN phase"
    (Invalid_argument "Platform.create: diurnal_phase must not be NaN")
    (fun () ->
      ignore
        (P.create ~config:{ (amp 0.5) with P.diurnal_phase = Float.nan } ()));
  (* the open upper end stays usable, and amplitude 0 skips the
     period/phase checks (the modulation is off) *)
  ignore (P.create ~config:(amp 0.999) ());
  ignore (P.create ~config:{ (amp 0.0) with P.diurnal_period = Float.nan } ())

(* One bad field at a time: each must be rejected at construction with
   a message naming it. Every one of these used to be accepted; some
   then hung the event loop (a NaN or infinite [patience_mean]), some
   returned plausible latencies (NaN rates or exponent), and some
   failed only deep inside it. *)
let test_config_validation_table () =
  let d = P.default_config in
  let svc median_seconds sigma = { W.median_seconds; sigma } in
  let bad =
    [
      ("post_overhead", "finite and >= 0", { d with P.post_overhead = -1.0 });
      ("post_overhead", "finite and >= 0", { d with P.post_overhead = Float.nan });
      ("base_rate", "finite and >= 0", { d with P.base_rate = Float.nan });
      ("base_rate", "finite and >= 0", { d with P.base_rate = -0.1 });
      ("base_rate", "finite and >= 0", { d with P.base_rate = Float.infinity });
      ( "attract_per_question",
        "finite and >= 0",
        { d with P.attract_per_question = Float.nan } );
      ( "attract_per_question",
        "finite and >= 0",
        { d with P.attract_per_question = -1e-4 } );
      ( "visibility_exponent",
        "finite and >= 0",
        { d with P.visibility_exponent = Float.nan } );
      ( "visibility_exponent",
        "finite and >= 0",
        { d with P.visibility_exponent = Float.neg_infinity } );
      ("burst_seconds", "finite and >= 0", { d with P.burst_seconds = Float.nan });
      ( "burst_seconds",
        "finite and >= 0",
        { d with P.burst_seconds = Float.infinity } );
      ("burst_seconds", "finite and >= 0", { d with P.burst_seconds = -5.0 });
      ("tail_rate", "finite and > 0", { d with P.tail_rate = 0.0 });
      ("tail_rate", "finite and > 0", { d with P.tail_rate = Float.nan });
      ("tail_rate", "finite and > 0", { d with P.tail_rate = Float.infinity });
      ("patience_mean", "finite and >= 1", { d with P.patience_mean = Float.nan });
      ( "patience_mean",
        "finite and >= 1",
        { d with P.patience_mean = Float.infinity } );
      ("patience_mean", "finite and >= 1", { d with P.patience_mean = 0.5 });
      ("service.sigma", "finite and >= 0", { d with P.service = svc 3.0 Float.nan });
      ("service.sigma", "finite and >= 0", { d with P.service = svc 3.0 (-0.6) });
      ( "service.median_seconds",
        "finite and > 0 (>= 0 when sigma = 0)",
        { d with P.service = svc (-3.0) 0.6 } );
      ( "service.median_seconds",
        "finite and > 0 (>= 0 when sigma = 0)",
        { d with P.service = svc (-3.0) 0.0 } );
      ( "service.median_seconds",
        "finite and > 0 (>= 0 when sigma = 0)",
        { d with P.service = svc 0.0 0.6 } );
      ( "service.median_seconds",
        "finite and > 0 (>= 0 when sigma = 0)",
        { d with P.service = svc Float.infinity 0.6 } );
    ]
  in
  List.iter
    (fun (field, rule, config) ->
      Alcotest.check_raises field
        (Invalid_argument
           (Printf.sprintf "Platform.create: %s must be %s" field rule))
        (fun () -> ignore (P.create ~config ())))
    bad;
  (* The boundary values stay usable: zero overhead, rates, exponent
     and burst; patience exactly 1; a fixed zero service time. *)
  let edge =
    {
      d with
      P.post_overhead = 0.0;
      base_rate = 0.0;
      attract_per_question = 0.0;
      visibility_exponent = 0.0;
      burst_seconds = 0.0;
      patience_mean = 1.0;
      service = svc 0.0 0.0;
    }
  in
  let p = P.create ~config:edge () in
  let r = P.simulate p (Rng.create 4) 5 ~on_complete:(fun _ _ -> ()) in
  check_int "edge config answers everything" 5 r.P.completed

(* --- the solo simulator, pinned scenario by scenario ---------------------

   Every observable of [simulate] on a grid of configs, batch sizes,
   deadlines and both callback kinds: the report fields as [%h], a
   digest of the completion stream, the raw rng draws consumed and a
   digest of the "platform" metrics snapshot. A row is pinned once and
   never re-pinned, so any change to an arrival, patience, service,
   deadline or instrument rule of the event loop fails here with the
   scenario named. The noop-callback run ([batch_latency], whose
   callback the loop elides) must agree with the live run on latency,
   draws and metrics. *)

let scenario_configs =
  let d = P.default_config in
  [
    ("default", d);
    ( "diurnal",
      { d with P.diurnal_amplitude = 0.9; diurnal_period = 4000.0;
        diurnal_phase = 1000.0 } );
    ("sigma0", { d with P.service = { d.P.service with W.sigma = 0.0 } });
    ("patience1", { d with P.patience_mean = 1.0 });
  ]

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let render_platform_metrics snap =
  let b = Buffer.create 256 in
  List.iter
    (fun { M.section; name; value } ->
      Buffer.add_string b (section ^ "." ^ name ^ "=");
      (match value with
      | M.Count n -> Buffer.add_string b (Printf.sprintf "c%d" n)
      | M.Peak n -> Buffer.add_string b (Printf.sprintf "p%d" n)
      | M.Histogram { counts; total; sum; _ } ->
          Array.iter (fun c -> Buffer.add_string b (Printf.sprintf "%d," c)) counts;
          Buffer.add_string b (Printf.sprintf "t%d s%h" total sum)
      | M.Real_seconds _ -> ());
      Buffer.add_char b ';')
    snap;
  Buffer.contents b

let scenario_seed = 211

(* The completion times of an undeadlined live run, in completion
   order: the "mid-batch" deadline is the median one, so the cutoff
   lands exactly on a counted answer with work still in flight. *)
let completion_times p q =
  let times = ref [] in
  ignore
    (P.simulate p (Rng.create scenario_seed) q ~on_complete:(fun _ t ->
         times := t :: !times));
  Array.of_list (List.rev !times)

let scenario_rows () =
  List.concat_map
    (fun (cname, cfg) ->
      let p = P.create ~config:cfg () in
      let post = cfg.P.post_overhead in
      List.concat_map
        (fun q ->
          let mid =
            if q = 0 then 2.0 *. post else (completion_times p q).(q / 2)
          in
          List.map
            (fun (dname, deadline) ->
              let run_live () =
                let m = M.create () in
                let rng = Rng.create scenario_seed in
                let base = Rng.copy rng in
                let stream = Buffer.create 1024 in
                let r =
                  P.simulate ?deadline ~metrics:m p rng q
                    ~on_complete:(fun idx t ->
                      Buffer.add_string stream (Printf.sprintf "%d %h;" idx t))
                in
                (r, Buffer.contents stream, Rng.draws_since ~base rng, M.snapshot m)
              in
              let r, stream, draws, snap = run_live () in
              let m = M.create () in
              let rng = Rng.create scenario_seed in
              let base = Rng.copy rng in
              let noop_latency = P.batch_latency ?deadline ~metrics:m p rng q in
              let label = Printf.sprintf "%s q=%d d=%s" cname q dname in
              check_bool (label ^ ": noop latency") true
                (Float.equal noop_latency r.P.latency);
              check_int (label ^ ": noop draws") draws (Rng.draws_since ~base rng);
              check_bool (label ^ ": noop metrics") true
                (M.equal snap (M.snapshot m));
              Printf.sprintf
                "%s: lat=%h last=%h c=%d f=%d u=%d hit=%b draws=%d stream=%s \
                 metrics=%s"
                label r.P.latency r.P.last_completion r.P.completed
                r.P.in_flight r.P.unassigned r.P.deadline_hit draws
                (short_digest stream)
                (short_digest (render_platform_metrics snap)))
            [
              ("none", None);
              ("pre", Some (post /. 2.0));
              ("post", Some post);
              ("mid", Some mid);
            ])
        [ 0; 1; 40; 1500 ])
    scenario_configs

let scenario_expected =
  [
    "default q=0 d=none: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "default q=0 d=pre: lat=0x1.2cp+6 last=0x1.2cp+6 c=0 f=0 u=0 hit=true draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "default q=0 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "default q=0 d=mid: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "default q=1 d=none: lat=0x1.9500b93a78157p+7 last=0x1.9500b93a78157p+7 c=1 f=0 u=0 hit=false draws=4 stream=7ab521aaccd437fb metrics=94ac23db8c67d135";
    "default q=1 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=1 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=1 d=mid: lat=0x1.9500b93a78157p+7 last=0x1.9500b93a78157p+7 c=1 f=0 u=0 hit=false draws=4 stream=7ab521aaccd437fb metrics=94ac23db8c67d135";
    "default q=40 d=none: lat=0x1.032a8921cfeccp+8 last=0x1.032a8921cfeccp+8 c=40 f=0 u=0 hit=false draws=60 stream=869916cf44e75485 metrics=82267d9683c78e1c";
    "default q=40 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=40 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=40 d=mid: lat=0x1.cb5916a66db09p+7 last=0x1.cb5916a66db09p+7 c=21 f=1 u=18 hit=true draws=36 stream=329d6d01aa29214f metrics=7a8898b30d23a970";
    "default q=1500 d=none: lat=0x1.0728c0206fcdbp+8 last=0x1.0728c0206fcdbp+8 c=1500 f=0 u=0 hit=false draws=1983 stream=c7fe752bd3d954ab metrics=9b6f5fcd1cb6ad81";
    "default q=1500 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=1500 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "default q=1500 d=mid: lat=0x1.af464c4a9957dp+7 last=0x1.af464c4a9957dp+7 c=751 f=77 u=672 hit=true draws=1162 stream=b6069449b9e2e7b6 metrics=137a531d6ac63ad7";
    "diurnal q=0 d=none: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "diurnal q=0 d=pre: lat=0x1.2cp+6 last=0x1.2cp+6 c=0 f=0 u=0 hit=true draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "diurnal q=0 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "diurnal q=0 d=mid: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "diurnal q=1 d=none: lat=0x1.7a29891c3245bp+7 last=0x1.7a29891c3245bp+7 c=1 f=0 u=0 hit=false draws=6 stream=11624727ce63602f metrics=7b79a5eabb2c03bf";
    "diurnal q=1 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=1 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=1 d=mid: lat=0x1.7a29891c3245bp+7 last=0x1.7a29891c3245bp+7 c=1 f=0 u=0 hit=false draws=6 stream=11624727ce63602f metrics=7b79a5eabb2c03bf";
    "diurnal q=40 d=none: lat=0x1.a7b370885eb78p+7 last=0x1.a7b370885eb78p+7 c=40 f=0 u=0 hit=false draws=69 stream=162fbcbf37adb00c metrics=f7224178cbec61ca";
    "diurnal q=40 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=40 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=40 d=mid: lat=0x1.85250cef8411p+7 last=0x1.85250cef8411p+7 c=21 f=5 u=14 hit=true draws=49 stream=2af6b71bc8540a36 metrics=15fbbd145714f76a";
    "diurnal q=1500 d=none: lat=0x1.d138dedf663bep+7 last=0x1.d138dedf663bep+7 c=1500 f=0 u=0 hit=false draws=2385 stream=14da406bbe8836ee metrics=2a0b43aae4da7456";
    "diurnal q=1500 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=1500 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=2 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "diurnal q=1500 d=mid: lat=0x1.8a2fd9e928badp+7 last=0x1.8a2fd9e928badp+7 c=751 f=94 u=655 hit=true draws=1424 stream=35d353093b6fc1e1 metrics=09182a417b2c12e1";
    "sigma0 q=0 d=none: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "sigma0 q=0 d=pre: lat=0x1.2cp+6 last=0x1.2cp+6 c=0 f=0 u=0 hit=true draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "sigma0 q=0 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "sigma0 q=0 d=mid: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "sigma0 q=1 d=none: lat=0x1.9919c6a1e74dep+7 last=0x1.9919c6a1e74dep+7 c=1 f=0 u=0 hit=false draws=3 stream=7a184b169c7b2295 metrics=94ac23db8c67d135";
    "sigma0 q=1 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=1 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=1 d=mid: lat=0x1.9919c6a1e74dep+7 last=0x1.9919c6a1e74dep+7 c=1 f=0 u=0 hit=false draws=3 stream=7a184b169c7b2295 metrics=94ac23db8c67d135";
    "sigma0 q=40 d=none: lat=0x1.ec89e44bf9283p+7 last=0x1.ec89e44bf9283p+7 c=40 f=0 u=0 hit=false draws=21 stream=70c6f974024b94b8 metrics=ed96787fd8ade61d";
    "sigma0 q=40 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=40 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=40 d=mid: lat=0x1.ab9088cdb7298p+7 last=0x1.ab9088cdb7298p+7 c=21 f=2 u=17 hit=true draws=13 stream=11603a7cda647489 metrics=d938b1f6acf8ac63";
    "sigma0 q=1500 d=none: lat=0x1.fb0675d49e05dp+7 last=0x1.fb0675d49e05dp+7 c=1500 f=0 u=0 hit=false draws=471 stream=2e0de208bbb49957 metrics=44fb495c8b47f7c0";
    "sigma0 q=1500 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=1500 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "sigma0 q=1500 d=mid: lat=0x1.aac01cb9f57ecp+7 last=0x1.aac01cb9f57ecp+7 c=751 f=66 u=683 hit=true draws=295 stream=a9d59e64b83dbde4 metrics=b2498aa017ad99e9";
    "patience1 q=0 d=none: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "patience1 q=0 d=pre: lat=0x1.2cp+6 last=0x1.2cp+6 c=0 f=0 u=0 hit=true draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "patience1 q=0 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "patience1 q=0 d=mid: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=0 hit=false draws=0 stream=d41d8cd98f00b204 metrics=b2763dfc348d5688";
    "patience1 q=1 d=none: lat=0x1.9500b93a78157p+7 last=0x1.9500b93a78157p+7 c=1 f=0 u=0 hit=false draws=4 stream=7ab521aaccd437fb metrics=94ac23db8c67d135";
    "patience1 q=1 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=1 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=1 d=mid: lat=0x1.9500b93a78157p+7 last=0x1.9500b93a78157p+7 c=1 f=0 u=0 hit=false draws=4 stream=7ab521aaccd437fb metrics=94ac23db8c67d135";
    "patience1 q=40 d=none: lat=0x1.2f52e6c93d5efp+10 last=0x1.2f52e6c93d5efp+10 c=40 f=0 u=0 hit=false draws=122 stream=eac291b5f48d65ec metrics=7220f95f87564a61";
    "patience1 q=40 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=40 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=40 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=40 d=mid: lat=0x1.6887e380b6c52p+8 last=0x1.6887e380b6c52p+8 c=21 f=1 u=18 hit=true draws=67 stream=0e2e1958b2a7573d metrics=fb48e16151e07ab4";
    "patience1 q=1500 d=none: lat=0x1.44495094b8f25p+15 last=0x1.44495094b8f25p+15 c=1500 f=0 u=0 hit=false draws=4535 stream=8beb9b5edb87c25d metrics=7863eec78b940980";
    "patience1 q=1500 d=pre: lat=0x1.2cp+6 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=1500 d=post: lat=0x1.2cp+7 last=0x1.2cp+7 c=0 f=0 u=1500 hit=true draws=1 stream=d41d8cd98f00b204 metrics=2712ad5535339e99";
    "patience1 q=1500 d=mid: lat=0x1.186c1f171fe89p+12 last=0x1.186c1f171fe89p+12 c=751 f=0 u=749 hit=true draws=2264 stream=a598b1741f186a47 metrics=b8ed810bad283e3f";
  ]

let test_solo_scenario_table () =
  let rows = scenario_rows () in
  check_int "row count" (List.length scenario_expected) (List.length rows);
  List.iter2 (Alcotest.check Alcotest.string "scenario") scenario_expected rows

let suite =
  [
    ( "platform",
      [
        tc "solo scenario table" `Quick test_solo_scenario_table;
        tc "config validation table" `Quick test_config_validation_table;
        tc "diurnal config validation" `Quick test_diurnal_config_validation;
        tc "diurnal draw budget bounded" `Quick test_diurnal_draw_budget_bounded;
        tc "arrival clamp equivalence" `Quick test_arrival_clamp_equivalence;
        tc "zero batch under deadlines" `Quick test_zero_batch_deadlines;
        tc "scratch reuse bit-identical" `Quick test_scratch_reuse_bit_identical;
        tc "events_drained accounting" `Quick test_events_drained_accounting;
        tc "deadline before first arrival" `Quick test_deadline_before_first_arrival;
        tc "deadline q=1" `Quick test_deadline_single_question;
        tc "deadline infinity bit-identical" `Quick test_deadline_infinity_bit_identical;
        tc "deadline partition + monotone" `Quick test_deadline_partition_and_monotone;
        tc "deadline validation" `Quick test_deadline_validation;
        tc "tally validation" `Quick test_tally_validation;
        tc "deadline partial deterministic" `Quick
          test_deadline_partial_deterministic;
        tc "diurnal peak beats trough" `Slow test_diurnal_peak_beats_trough;
        tc "tiny amplitude ~ steady" `Slow test_diurnal_zero_amplitude_matches_steady_stats;
        tc "zero batch = overhead" `Quick test_zero_batch_costs_overhead;
        tc "negative rejected" `Quick test_negative_rejected;
        tc "bad tail rate rejected" `Quick test_bad_tail_rate_rejected;
        tc "latency above overhead" `Quick test_latency_exceeds_overhead;
        tc "Fig 11(a) shape" `Slow test_fig11a_shape;
        tc "calibration near paper" `Slow test_calibration_near_paper;
        tc "deterministic given seed" `Quick test_deterministic_given_seed;
      ] );
  ]
