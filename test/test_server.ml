(* The query server and its shared-supply marketplace: conservation
   invariants, the merged-batch equivalence, validation,
   any-jobs determinism and golden pins for the replicate aggregate. *)

module Server = Crowdmax_server.Server
module E = Crowdmax_runtime.Engine
module Platform = Crowdmax_crowd.Platform
module G = Crowdmax_crowd.Ground_truth
module Contention = Crowdmax_latency.Contention
module Model = Crowdmax_latency.Model
module S = Crowdmax_selection.Selection
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)
let model = Model.linear ~delta:100.0 ~alpha:1.0

(* --- shared-supply marketplace invariants ----------------------------- *)

let events () =
  let log = ref [] in
  let on_complete ~query idx time = log := (query, idx, time) :: !log in
  (log, on_complete)

(* FIFO with no deadlines assigns query 0's questions first, so k
   queries are one merged batch: global index = offset + local index,
   and the merged completion stream is reproduced exactly (no supply
   duplication, no extra draws). *)
let test_shared_fifo_is_merged_batch () =
  let p = Platform.create () in
  let qs = [| 15; 9; 20 |] in
  let total = Array.fold_left ( + ) 0 qs in
  let offsets = [| 0; qs.(0); qs.(0) + qs.(1) |] in
  let merged_log = ref [] in
  let merged =
    Platform.simulate p (Rng.create 103) total ~on_complete:(fun idx time ->
        merged_log := (idx, time) :: !merged_log)
  in
  let shared_log, on_complete = events () in
  let shared =
    Platform.simulate_shared p (Rng.create 103) ~pick:Platform.Fifo
      ~on_complete qs
  in
  let globalized =
    List.map (fun (query, idx, time) -> (offsets.(query) + idx, time)) !shared_log
  in
  check_bool "merged completion stream" true (globalized = !merged_log);
  Array.iteri
    (fun i r -> check_int "every question answered" qs.(i) r.Platform.completed)
    shared;
  let last =
    Array.fold_left (fun acc r -> Float.max acc r.Platform.latency) 0.0 shared
  in
  check_bool "fleet finishes with the merged batch" true
    (Float.equal last merged.Platform.latency)

(* completed + in_flight + unassigned = q for every query — including
   a withdrawn one whose discards stay in its own in_flight bucket —
   and no answer of a deadlined query lands after its cutoff. *)
let test_shared_conservation_under_deadlines () =
  let p = Platform.create () in
  let qs = [| 25; 30; 18 |] in
  let deadlines = [| 170.0; Float.infinity; 200.0 |] in
  let log, on_complete = events () in
  let reports =
    Platform.simulate_shared ~deadlines p (Rng.create 107)
      ~pick:Platform.Proportional ~on_complete qs
  in
  Array.iteri
    (fun i r ->
      check_int
        (Printf.sprintf "query %d conserves its questions" i)
        qs.(i)
        (r.Platform.completed + r.Platform.in_flight + r.Platform.unassigned);
      if r.Platform.deadline_hit then begin
        check_bool "withdrawn latency is the deadline" true
          (Float.equal r.Platform.latency deadlines.(i));
        check_bool "last completion unclipped (before the cutoff)" true
          (r.Platform.last_completion <= deadlines.(i))
      end)
    reports;
  let counted = Array.make (Array.length qs) 0 in
  List.iter
    (fun (query, _, time) ->
      counted.(query) <- counted.(query) + 1;
      check_bool "no answer after its query's cutoff" true
        (time <= deadlines.(query)))
    !log;
  Array.iteri
    (fun i r -> check_int "on_complete agrees with report" r.Platform.completed
        counted.(i))
    reports;
  check_int "fleet-wide conservation" (Array.fold_left ( + ) 0 qs)
    (Array.fold_left
       (fun acc r ->
         acc + r.Platform.completed + r.Platform.in_flight
         + r.Platform.unassigned)
       0 reports)

(* --- server runs ------------------------------------------------------ *)

let specs () =
  [|
    Server.query_spec ~label:"a" ~elements:30 ~budget:180 ();
    Server.query_spec ~label:"b" ~elements:20 ~budget:60
      ~deadline:(E.Fixed 180.0) ();
    Server.query_spec ~label:"c" ~elements:25 ~budget:140 ~votes:2
      ~deadline:(E.Quantile 0.9) ~admit_step:1 ();
    Server.query_spec ~label:"d" ~elements:15 ~budget:50 ~admit_step:2 ();
  |]

let run_fleet ?contention ?pick seed =
  let specs = specs () in
  let rng = Rng.create seed in
  let truths = Array.map (fun s -> G.random rng s.Server.elements) specs in
  Server.run ?contention ?pick ~platform:(Platform.create ()) ~latency:model
    ~selection:S.tournament rng specs truths

let test_run_sanity () =
  let r = run_fleet 3 in
  check_int "one report per spec" 4 (Array.length r.Server.queries);
  let labels = Array.map (fun q -> q.Server.label) r.Server.queries in
  Alcotest.(check (array string)) "spec order" [| "a"; "b"; "c"; "d" |] labels;
  let mean =
    Array.fold_left (fun acc q -> acc +. q.Server.latency) 0.0 r.Server.queries
    /. 4.0
  in
  checkf 1e-9 "fleet mean is the mean of per-query latencies" mean
    r.Server.fleet_mean_latency;
  check_bool "fairness is a Jain index" true
    (r.Server.fairness > 0.25 && r.Server.fairness <= 1.0 +. 1e-12);
  check_int "oblivious planning never contention-replans" 0
    r.Server.contention_replans;
  Array.iter
    (fun q ->
      check_bool "ran rounds" true (q.Server.rounds >= 1);
      check_bool "sojourn >= own latency" true
        (q.Server.sojourn >= q.Server.latency -. 1e-9);
      check_bool "admitted before finishing" true
        (q.Server.admitted_at >= 0.0))
    r.Server.queries;
  check_bool "steps cover the latest admission" true (r.Server.steps >= 3);
  check_bool "makespan covers every sojourn" true
    (Array.for_all
       (fun q ->
         q.Server.admitted_at +. q.Server.sojourn <= r.Server.makespan +. 1e-9)
       r.Server.queries)

(* With a contention model and real fleet churn (staggered admissions
   and completions shift the foreign load) the effective model changes
   between steps and the re-plan counter fires; the solo arm's stays
   zero by construction. *)
let test_contention_replans_fire () =
  let contention = Contention.create ~base:model ~beta:0.3 in
  let r = run_fleet ~contention 5 in
  check_bool "load shifts re-planned" true (r.Server.contention_replans >= 1)

let test_validation () =
  let reject msg specs truths =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore
          (Server.run ~platform:(Platform.create ()) ~latency:model
             ~selection:S.tournament (Rng.create 7) specs truths))
  in
  let truth n = G.random (Rng.create 9) n in
  reject "Server.run: no queries" [||] [||];
  reject "Server.run: elements < 2"
    [| Server.query_spec ~elements:1 ~budget:10 () |]
    [| truth 1 |];
  reject "Server.run: budget below Theorem 1's minimum"
    [| Server.query_spec ~elements:10 ~budget:8 () |]
    [| truth 10 |];
  reject "Server.run: votes < 1"
    [| Server.query_spec ~votes:0 ~elements:10 ~budget:20 () |]
    [| truth 10 |];
  reject "Server.run: admit_step < 0"
    [| Server.query_spec ~admit_step:(-1) ~elements:10 ~budget:20 () |]
    [| truth 10 |];
  reject "Server.run: Fixed deadline must be > 0"
    [| Server.query_spec ~deadline:(E.Fixed 0.0) ~elements:10 ~budget:20 () |]
    [| truth 10 |];
  reject "Server.run: Quantile must be in (0, 1]"
    [| Server.query_spec ~deadline:(E.Quantile 1.5) ~elements:10 ~budget:20 () |]
    [| truth 10 |];
  reject "Server.run: admit_step overflows the fleet step counter"
    [| Server.query_spec ~admit_step:max_int ~elements:10 ~budget:20 () |]
    [| truth 10 |];
  reject "Server.run: admit_step overflows the fleet step counter"
    [|
      Server.query_spec ~elements:10 ~budget:20 ();
      Server.query_spec ~admit_step:(max_int - 20) ~elements:10 ~budget:20 ();
    |]
    [| truth 10; truth 10 |];
  reject "Server.run: truths length mismatch"
    [| Server.query_spec ~elements:10 ~budget:20 () |]
    [||];
  reject "Server.run: ground truth size mismatch"
    [| Server.query_spec ~elements:10 ~budget:20 () |]
    [| truth 11 |]

(* Steps with no admitted query left to serve are skipped in one jump,
   counted as if walked: a late admission costs nothing to reach, and
   only the step counter tells it apart from an early one. *)
let test_idle_steps_skipped () =
  let fleet admit =
    let specs =
      [|
        Server.query_spec ~label:"early" ~elements:4 ~budget:3 ();
        Server.query_spec ~label:"late" ~elements:4 ~budget:3 ~admit_step:admit ();
      |]
    in
    let rng = Rng.create 5 in
    let truths = Array.map (fun s -> G.random rng s.Server.elements) specs in
    let metrics = Crowdmax_obs.Metrics.create () in
    let r =
      Server.run ~metrics ~platform:(Platform.create ()) ~latency:model
        ~selection:S.tournament rng specs truths
    in
    (r, Crowdmax_obs.Metrics.find (Crowdmax_obs.Metrics.snapshot metrics)
          ~section:"server" "fleet_steps")
  in
  let near, _ = fleet 10 in
  let t0 = Sys.time () in
  let far, steps = fleet 100_000_000 in
  check_bool "a 10^8-step wait costs no walk" true (Sys.time () -. t0 < 1.0);
  check_int "steps count the skipped wait" (100_000_000 + 3) far.Server.steps;
  check_bool "fleet_steps counts the skipped wait" true
    (steps = Some (Crowdmax_obs.Metrics.Count (100_000_000 + 3)));
  check_bool "same fleet clock" true
    (Float.equal near.Server.makespan far.Server.makespan);
  Array.iter2
    (fun (a : Server.query_report) (b : Server.query_report) ->
      check_bool "same query latency" true (Float.equal a.latency b.latency);
      check_int "same rounds" a.rounds b.rounds)
    near.Server.queries far.Server.queries

let replicate ?contention jobs =
  Server.replicate ~jobs ?contention ~platform:(Platform.create ())
    ~latency:model ~selection:S.tournament ~runs:6 ~seed:11 (specs ()) ()

(* The determinism contract: replicate aggregates are bit-identical
   for any jobs count, for both planning arms. *)
let test_replicate_jobs_invariant () =
  List.iter
    (fun contention ->
      let base = replicate ?contention 1 in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "jobs=%d matches sequential" jobs)
            true
            (Server.equal_aggregate base (replicate ?contention jobs)))
        [ 2; 4 ])
    [ None; Some (Contention.create ~base:model ~beta:0.3) ]

(* Golden pins: the aggregate of the committed default fleet, as exact
   bit patterns. Shared-mode planning, scheduling or draw-order changes
   show up here; regenerate deliberately if semantics change. *)
let hex v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

let test_replicate_golden () =
  let a = replicate 1 in
  Alcotest.(check (list string))
    "aggregate bit patterns"
    [
      "4083b9487cb99deb";
      "40940b3ba41de681";
      "3fed087e2e8ccd64";
      "3f69c54acd8baba4";
      "3fe4000000000000";
      "3fe8000000000000";
    ]
    (List.map hex
       [
         a.Server.mean_fleet_latency;
         a.Server.mean_makespan;
         a.Server.mean_fairness;
         a.Server.mean_throughput;
         a.Server.correct_rate;
         a.Server.singleton_rate;
       ])

let suite =
  [
    ( "server",
      [
        tc "shared fifo = merged batch" `Quick test_shared_fifo_is_merged_batch;
        tc "shared conservation under deadlines" `Quick
          test_shared_conservation_under_deadlines;
        tc "run sanity" `Quick test_run_sanity;
        tc "contention replans fire" `Quick test_contention_replans_fire;
        tc "validation" `Quick test_validation;
        tc "idle steps skipped" `Quick test_idle_steps_skipped;
        tc "replicate jobs invariant" `Slow test_replicate_jobs_invariant;
        tc "replicate golden pins" `Quick test_replicate_golden;
      ] );
  ]
