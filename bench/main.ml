(* Benchmark harness: the deterministic work-counter gates (opcheck,
   history-append, history-check) and bechamel micro-benchmarks over the
   computational kernels plus the metrics-overhead estimate. The
   paper's figures and the ablation tables are `crowdmax experiment`'s
   job; end-to-end wall-clock throughput is perfbench's
   (perfbench/README.md).

   Usage:
     dune exec bench/main.exe                   # micro-benchmarks
     dune exec bench/main.exe -- opcheck        # deterministic counters
     dune exec bench/main.exe -- history-check  # counters vs history *)

module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module G = Crowdmax_crowd.Ground_truth
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module Rng = Crowdmax_util.Rng
module Metrics = Crowdmax_obs.Metrics

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let model = Model.paper_mturk

(* --- deterministic operation-count table --------------------------------- *)

(* Every counter below is simulated bookkeeping or planner arithmetic
   over a fixed scan order, so for a fixed scenario and seed it is
   bit-deterministic: same totals on any machine, any [jobs], metrics
   on or off. [opcheck_counters] runs the five scenarios once and
   returns one (key, count) pair per counter, in a fixed order.

   `main.exe opcheck` prints one "key value" line per pair, and a rule
   in bench/dune diffs that output against bench/opcheck.expected under
   `dune runtest`. An accidental change to the event loop, the DP scan
   order, the memo or bound policy, the re-fit detector or the fleet
   loop therefore fails the test suite with the counter named. After an
   intentional change, `dune runtest` followed by `dune promote`
   regenerates the file. [history-append] and [history-check] read the
   same pairs (see the history gate below).

   Structural cross-checks hold whatever the pinned values are: the
   Platform.simulate identity events_drained = worker_arrivals +
   completions, each cold solve's own accounting, the replayed sweep
   solve settling no state, the re-fit and re-plan orderings, and the
   replicate determinism contract (jobs=4 equals jobs=1). They and a
   counter missing from its snapshot fail all three subcommands: each
   failure is printed to stdout, named again on stderr (which `dune
   runtest` shows), and the process exits 1. *)

(* The engine scenario, platform-section counters. The canonical
   simulated config for [n] elements: budget 8n, tDP allocation,
   tournament selection, 3-vote RWL at 15% worker error. *)
let engine_sim_config n =
  let b = 8 * n in
  let sol = Tdp.solve (Problem.create ~elements:n ~budget:b ~latency:model) in
  Engine.config
    ~source:
      (Engine.Simulated
         {
           platform = Crowdmax_crowd.Platform.create ();
           rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
         })
    ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
    ~latency_model:model ()

let opcheck_engine_runs = 5
let opcheck_engine_seed = 99
let opcheck_engine_sizes = [ 100; 500 ]

(* Cold solves, one fresh cache each: (key tag, model, c0, b). The
   paper-model rows end on a lean budget (2 c0) at c0=1000: the
   round-count bound settles ~10^2 states there against 84283 without
   it, so a refactor that silently disables the bound moves its counters
   loudly. The power row is outside the bound: the DP settles every
   reachable state, and its counters pin the unpruned scan. ub_entries
   (Tdp.Cache.ub_entries, not a metrics counter) pins the on-demand
   unconstrained table: under the bound a handful of entries, outside
   it every entry the DP reads (c0 - 2 here: nothing reads the root's,
   a lean root state resolves through its children). *)
let opcheck_cold_solves =
  List.map
    (fun (c0, b) -> ("", model, c0, b))
    [ (40, 108); (200, 1600); (500, 999); (500, 4000); (1000, 2000) ]
  @ [ ("p=1.4.", Model.power ~delta:239.0 ~alpha:0.06 ~p:1.4, 500, 999) ]

(* The cached sweep, one cache and one registry across all solves. At
   c0=300 the first budget is binding (2 c0 - 1), the middle ones span
   the clamp boundary, and the last repeats an earlier budget so the
   final solve is a pure arena replay. *)
let opcheck_sweep_c0 = 300
let opcheck_sweep_budgets = [ 599; 1200; 2400; 4800; 1200 ]

(* The closed loop: a mid-run supply drop (the Fig_adapt shape, scaled
   down), so the drift detector, the re-fit and the drift-triggered
   re-plan all fire. *)
let opcheck_adaptive_runs = 6
let opcheck_adaptive_seed = 107

let opcheck_scaled_source scale =
  let c = Crowdmax_crowd.Platform.default_config in
  let config =
    {
      c with
      Crowdmax_crowd.Platform.base_rate =
        c.Crowdmax_crowd.Platform.base_rate *. scale;
      attract_per_question =
        c.Crowdmax_crowd.Platform.attract_per_question *. scale;
    }
  in
  Engine.Simulated
    {
      platform = Crowdmax_crowd.Platform.create ~config ();
      rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
    }

let opcheck_adaptive_replicate jobs =
  Adaptive.replicate ~jobs
    ~source:(opcheck_scaled_source 1.0)
    ~refit:(Adaptive.On_drift 0.5)
    ~source_shift:(1, opcheck_scaled_source 0.2)
    ~runs:opcheck_adaptive_runs ~seed:opcheck_adaptive_seed
    ~problem:(Problem.create ~elements:150 ~budget:450 ~latency:model)
    ~selection:Selection.tournament ()

(* The shared-marketplace server: four queries with staggered
   admission, a fixed and a quantile deadline, under a contention
   model, so admissions, contention re-plans, deadline hits and
   shared-mode discards all happen. One metered run on the replicate
   seed's first run rng gives the counters. *)
module Server = Crowdmax_server.Server
module Contention = Crowdmax_latency.Contention

let opcheck_server_runs = 4
let opcheck_server_seed = 113

let opcheck_server_specs () =
  [|
    Server.query_spec ~label:"a" ~elements:120 ~budget:960 ();
    Server.query_spec ~label:"b" ~elements:80 ~budget:200
      ~deadline:(Engine.Fixed (Model.eval model 60)) ();
    Server.query_spec ~label:"c" ~elements:100 ~budget:800 ~votes:2
      ~deadline:(Engine.Quantile 0.9) ~admit_step:1 ();
    Server.query_spec ~label:"d" ~elements:60 ~budget:150 ~admit_step:2 ();
  |]

let opcheck_contention () = Contention.create ~base:model ~beta:0.25

let opcheck_server_replicate jobs =
  Server.replicate ~jobs ~contention:(opcheck_contention ())
    ~platform:(Crowdmax_crowd.Platform.create ())
    ~latency:model ~selection:Selection.tournament ~runs:opcheck_server_runs
    ~seed:opcheck_server_seed (opcheck_server_specs ()) ()

let opcheck_counters () =
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "  FAILED %s\n%!" msg;
        failures := msg :: !failures)
      fmt
  in
  let out = ref [] in
  let record key v =
    out := (key, v) :: !out;
    v
  in
  (* [prefix ^ name] := the [section]/[name] count of [snap] *)
  let read snap ~section prefix name =
    match Metrics.find snap ~section name with
    | Some (Metrics.Count c) -> record (prefix ^ name) c
    | _ ->
        fail "%s%s: %s/%s missing from snapshot" prefix name section name;
        0
  in
  let read_all snap ~section prefix names =
    List.iter (fun name -> ignore (read snap ~section prefix name)) names
  in
  List.iter
    (fun n ->
      let _agg, snap =
        Engine.replicate_with_metrics ~runs:opcheck_engine_runs
          ~seed:opcheck_engine_seed (engine_sim_config n) ~elements:n
      in
      let prefix = Printf.sprintf "engine.n=%d." n in
      let events = read snap ~section:"platform" prefix "events_drained" in
      let arrivals = read snap ~section:"platform" prefix "worker_arrivals" in
      let completions = read snap ~section:"platform" prefix "completions" in
      if events <> arrivals + completions then
        fail "%sevents_drained %d <> worker_arrivals %d + completions %d"
          prefix events arrivals completions)
    opcheck_engine_sizes;
  List.iter
    (fun (tag, latency, c0, b) ->
      let metrics = Metrics.create () in
      let cache = Tdp.Cache.create () in
      let sol =
        Tdp.solve ~metrics ~cache
          (Problem.create ~elements:c0 ~budget:b ~latency)
      in
      let snap = Metrics.snapshot metrics in
      let prefix = Printf.sprintf "planner.cold.%sc0=%d.b=%d." tag c0 b in
      let states = read snap ~section:"planner" prefix "states_visited" in
      read_all snap ~section:"planner" prefix
        [ "memo_hits"; "memo_misses"; "ub_pruned_branches" ];
      ignore (record (prefix ^ "ub_entries") (Tdp.Cache.ub_entries cache));
      if sol.Tdp.states_visited <> states then
        fail "%sstates_visited: the solve reports %d, the counter %d" prefix
          sol.Tdp.states_visited states)
    opcheck_cold_solves;
  let metrics = Metrics.create () in
  let cache = Tdp.Cache.create () in
  let last_states =
    List.fold_left
      (fun _ b ->
        (Tdp.solve ~metrics ~cache
           (Problem.create ~elements:opcheck_sweep_c0 ~budget:b ~latency:model))
          .Tdp.states_visited)
      0 opcheck_sweep_budgets
  in
  let prefix = Printf.sprintf "planner.sweep.c0=%d." opcheck_sweep_c0 in
  read_all (Metrics.snapshot metrics) ~section:"planner" prefix
    [
      "states_visited"; "memo_hits"; "memo_misses"; "ub_pruned_branches";
      "plan_cache_hits"; "plan_cache_misses";
    ];
  if last_states <> 0 then
    fail "%sreplayed solve settled %d new states, expected 0" prefix
      last_states;
  let agg = opcheck_adaptive_replicate 1 in
  ignore (record "adaptive.replans" agg.Adaptive.total_replans);
  let refits = record "adaptive.refits" agg.Adaptive.total_refits in
  let drift = record "adaptive.drift_detected" agg.Adaptive.total_drift_detected in
  let on_drift =
    record "adaptive.replans_on_drift" agg.Adaptive.total_replans_on_drift
  in
  if on_drift > refits then
    fail "adaptive.replans_on_drift %d > adaptive.refits %d" on_drift refits;
  if refits > drift then
    fail "adaptive.refits %d > adaptive.drift_detected %d" refits drift;
  let par = opcheck_adaptive_replicate 4 in
  if
    not
      (Engine.equal_stats agg.Adaptive.engine_aggregate
         par.Adaptive.engine_aggregate
      && agg.Adaptive.total_replans = par.Adaptive.total_replans
      && refits = par.Adaptive.total_refits
      && drift = par.Adaptive.total_drift_detected
      && on_drift = par.Adaptive.total_replans_on_drift)
  then fail "adaptive: the jobs=4 aggregate differs from jobs=1";
  let metrics = Metrics.create () in
  let rng = Rng.create opcheck_server_seed in
  let specs = opcheck_server_specs () in
  let truths =
    Array.map (fun (s : Server.query_spec) -> G.random rng s.Server.elements)
      specs
  in
  let result =
    Server.run ~metrics ~contention:(opcheck_contention ())
      ~platform:(Crowdmax_crowd.Platform.create ())
      ~latency:model ~selection:Selection.tournament rng specs truths
  in
  let snap = Metrics.snapshot metrics in
  read_all snap ~section:"server" "server."
    [
      "queries_admitted"; "queries_completed"; "fleet_steps"; "rounds_run";
      "questions_posted";
    ];
  let replans = read snap ~section:"server" "server." "replans" in
  let c_replans = read snap ~section:"server" "server." "contention_replans" in
  ignore (read snap ~section:"server" "server." "deadline_hits");
  read_all snap ~section:"platform" "server."
    [ "shared_calls"; "shared_discarded_answers" ];
  if c_replans > replans then
    fail "server.contention_replans %d > server.replans %d" c_replans replans;
  if result.Server.contention_replans <> c_replans then
    fail "server.contention_replans: the result reports %d, the metric %d"
      result.Server.contention_replans c_replans;
  if
    not
      (Server.equal_aggregate (opcheck_server_replicate 1)
         (opcheck_server_replicate 4))
  then fail "server: the jobs=4 aggregate differs from jobs=1";
  match !failures with
  | [] -> List.rev !out
  | fs ->
      Printf.eprintf "opcheck FAILED (%d structural check(s)): %s\n%!"
        (List.length fs)
        (String.concat "; " (List.rev fs));
      exit 1

let opcheck () =
  List.iter (fun (key, v) -> Printf.printf "%s %d\n" key v) (opcheck_counters ())

(* --- deterministic counter history gate ---------------------------------- *)

(* The opcheck counters are bit-deterministic, which makes them a
   cross-PR regression signal as well as an in-PR pin: [history-append]
   records them in BENCH_history.jsonl (one compact v2 row per call),
   and [history-check] recomputes them and compares
   against the most recent counters-bearing row — so a PR that shifts
   the event loop's or the planner's work profile fails `make ci` with
   the drifting counter named, even if its author promoted a new
   bench/opcheck.expected. Because the counters are deterministic,
   any nonzero drift is a real behavior change; the 2% headroom only
   tolerates deliberate, reviewed bookkeeping tweaks without demanding
   a same-commit baseline row. Rows written by the v1 schema (the
   retired engine-throughput harness) carry no counters and are skipped
   when picking the baseline.

   A row is keyed by [git rev-parse HEAD]. Appended from a tree with
   uncommitted changes to tracked files, that is the parent's hash over
   the child's counters, so the row records ["dirty": true] and a
   commit-prefix baseline skips it. Rows older than the field count as
   clean.

   CROWDMAX_BENCH_BASELINE overrides the baseline choice:
     CROWDMAX_BENCH_BASELINE=skip          skip the gate (prints a note)
     CROWDMAX_BENCH_BASELINE=<commit-pfx>  compare against the newest
                                           clean counters row whose
                                           commit starts with that
                                           prefix *)

let bench_history_file = "BENCH_history.jsonl"

(* The first line of [cmd]'s stdout, or None if it fails. *)
let git_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line =
      try Some (String.trim (input_line ic)) with End_of_file -> Some ""
    in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
  with _ -> None

let git_commit () =
  match git_line "git rev-parse --short=12 HEAD" with
  | Some c when not (String.equal c "") -> c
  | _ -> "unknown"

(* Any uncommitted change to a tracked file; outside a checkout, unknown
   counts as dirty. *)
let git_dirty () =
  match git_line "git status --porcelain --untracked-files=no" with
  | Some "" -> false
  | _ -> true

let history_append () =
  section "bench history: record deterministic counter row";
  let counters = opcheck_counters () in
  let module J = Crowdmax_util.Json in
  let commit = git_commit () and dirty = git_dirty () in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 bench_history_file in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("schema", J.String "crowdmax-bench-history/v2");
            ("commit", J.String commit);
            ("dirty", J.Bool dirty);
            ("unix_time", J.Float (Unix.time ()));
            ("build_profile", J.String Build_profile.value);
            ("counters", J.Obj (List.map (fun (k, v) -> (k, J.int v)) counters));
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended %d counters for commit %s%s to %s\n%!"
    (List.length counters) commit
    (if dirty then " (dirty tree)" else "")
    bench_history_file

(* Newest history row that carries counters (and, when the baseline
   override names a commit prefix, is clean and matches it). Malformed
   lines are a hard error so the file cannot rot silently. *)
let history_baseline () =
  let module J = Crowdmax_util.Json in
  if not (Sys.file_exists bench_history_file) then None
  else begin
    let ic = open_in bench_history_file in
    let rows = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if not (String.equal (String.trim line) "") then
           match J.of_string line with
           | row -> rows := row :: !rows
           | exception J.Parse_error { position; message } ->
               Printf.eprintf
                 "bench: %s:%d: malformed history row (byte %d: %s)\n"
                 bench_history_file !lineno position message;
               exit 2
       done
     with End_of_file -> ());
    close_in ic;
    let commit_of row =
      Option.value ~default:"unknown"
        (Option.bind (J.member "commit" row) J.to_str)
    in
    let counters_of row =
      match J.member "counters" row with
      | Some (J.Obj kvs) ->
          Some
            (List.filter_map
               (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v))
               kvs)
      | _ -> None
    in
    let dirty row =
      Option.value ~default:false (Option.bind (J.member "dirty" row) J.to_bool)
    in
    let prefix_ok row =
      match Sys.getenv_opt "CROWDMAX_BENCH_BASELINE" with
      | None -> true
      | Some p ->
          let commit = commit_of row in
          (not (dirty row))
          && String.length commit >= String.length p
          && String.equal (String.sub commit 0 (String.length p)) p
    in
    (* [rows] is newest-first *)
    List.find_map
      (fun row ->
        match counters_of row with
        | Some cs when prefix_ok row -> Some (commit_of row, cs)
        | _ -> None)
      !rows
  end

let history_drift_pct = 2.0

let history_check () =
  section
    (Printf.sprintf
       "bench history gate (deterministic counters, >%.0f%% drift fails)"
       history_drift_pct);
  match Sys.getenv_opt "CROWDMAX_BENCH_BASELINE" with
  | Some "skip" ->
      Printf.printf "  CROWDMAX_BENCH_BASELINE=skip: history gate skipped\n"
  | requested -> (
      match history_baseline () with
      | None -> (
          match requested with
          | Some prefix ->
              Printf.eprintf
                "bench: no counters-bearing row in %s matches commit prefix \
                 %S (rows appended from a dirty tree are skipped)\n"
                bench_history_file prefix;
              exit 1
          | None ->
              Printf.printf
                "  no counters-bearing row in %s yet; run `main.exe \
                 history-append` to record one\n"
                bench_history_file)
      | Some (commit, old) ->
          let fresh = opcheck_counters () in
          let lookup key kvs =
            Option.map snd
              (List.find_opt (fun (k, _) -> String.equal k key) kvs)
          in
          let failures = ref 0 in
          List.iter
            (fun (key, now) ->
              match lookup key old with
              | None ->
                  Printf.printf "  %s: new counter (no baseline), now %d\n" key
                    now
              | Some before ->
                  let drift =
                    100.0
                    *. float_of_int (abs (now - before))
                    /. float_of_int (max (abs before) 1)
                  in
                  if drift > history_drift_pct then begin
                    Printf.printf "  %s: %d -> %d (%+.1f%% vs commit %s)\n" key
                      before now drift commit;
                    incr failures
                  end)
            fresh;
          List.iter
            (fun (key, before) ->
              if Option.is_none (lookup key fresh) then begin
                Printf.printf "  %s: counter disappeared (baseline had %d)\n"
                  key before;
                incr failures
              end)
            old;
          if !failures > 0 then begin
            Printf.printf
              "bench history gate FAILED (%d counter(s) drifted vs commit %s; \
               if intentional, re-baseline with `main.exe history-append` or \
               set CROWDMAX_BENCH_BASELINE)\n\
               %!"
              !failures commit;
            exit 1
          end
          else
            Printf.printf "  ok: %d counters within %.0f%% of commit %s\n"
              (List.length fresh) history_drift_pct commit)

(* --- bechamel micro-benchmarks ------------------------------------------ *)

open Bechamel
open Toolkit

let tdp_test name c0 b =
  Test.make ~name (Staged.stage (fun () ->
      ignore (Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model))))

let tdp_bottom_up_test name c0 b =
  Test.make ~name (Staged.stage (fun () ->
      ignore
        (Tdp_reference.solve_bottom_up
           (Problem.create ~elements:c0 ~budget:b ~latency:model))))

let selection_test name sel c0 b =
  let input =
    {
      Selection.budget = b;
      candidates = Array.init c0 (fun i -> i);
      history = Dag.create c0;
      round_index = 0;
      total_rounds = 1;
      carried = [];
    }
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 42 in
      ignore (sel.Selection.select rng input)))

let scoring_test name n =
  let rng = Rng.create 7 in
  let truth = Rng.permutation rng n in
  let dag = Dag.create n in
  for _ = 1 to 4 * n do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      let w, l = if truth.(a) > truth.(b) then (a, b) else (b, a) in
      Dag.add_answer_unchecked dag ~winner:w ~loser:l
    end
  done;
  (* [Scoring] memoizes on the DAG's answer count, which never changes
     here; dropping the memo every iteration times Algorithm 2 itself
     rather than a cache hit's array copy. *)
  Test.make ~name (Staged.stage (fun () ->
      Dag.set_ext dag Dag.Ext_none;
      ignore (Scoring.scores_array dag)))

let rwl_test name n votes =
  let rng0 = Rng.create 11 in
  let truth = G.random rng0 n in
  let questions =
    List.concat
      (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k))))
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 13 in
      ignore (Rwl.resolve rng { Rwl.votes; error = W.Uniform 0.15 } ~truth questions)))

let engine_test ?source ?deadline ?straggler name c0 b sel =
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  let cfg =
    Engine.config ?source ?deadline ?straggler ~allocation:sol.Tdp.allocation
      ~selection:sel ~latency_model:model ()
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 17 in
      let truth = G.random rng c0 in
      ignore (Engine.run rng cfg truth)))

(* The marketplace event loop alone: a solo batch at static-sim's
   first-round size (3 votes x 2,250 posted), and one step of an
   8-query fleet on the shared marketplace under [Proportional], with
   deadline withdrawals and in-loop vote tallies (3 votes per posted
   slot, as the server posts them). *)
let platform_solo_test name q =
  let module P = Crowdmax_crowd.Platform in
  let platform = P.create () in
  let scratch = P.scratch () in
  Test.make ~name (Staged.stage (fun () ->
      ignore (P.batch_latency ~scratch platform (Rng.create 29) q)))

let platform_shared_test name =
  let module P = Crowdmax_crowd.Platform in
  let platform = P.create () in
  let scratch = P.scratch () in
  let posted = [| 120; 250; 180; 90; 300; 150; 210; 60 |] in
  let deadlines = [| 400.; infinity; 350.; 600.; infinity; 300.; 900.; 250. |] in
  let qs = Array.map (fun p -> 3 * p) posted in
  let tallies = Array.map (fun p -> Array.make p 0) posted in
  Test.make ~name (Staged.stage (fun () ->
      ignore
        (P.simulate_shared ~deadlines ~scratch ~tallies platform (Rng.create 31)
           ~pick:P.Proportional qs)))

(* Ablation: random vs seeded (round-robin) tournament assignment. *)
let assignment_test name assign =
  let elements = Array.init 512 (fun i -> i) in
  Test.make ~name (Staged.stage (fun () -> ignore (assign elements 64)))

let micro_tests =
  Test.make_grouped ~name:"crowdmax"
    [
      Test.make_grouped ~name:"tdp (Fig 15 kernel)"
        [
          tdp_test "solve c0=250 b=2000" 250 2000;
          tdp_test "solve c0=500 b=4000" 500 4000;
          tdp_test "solve c0=1000 b=8000" 1000 8000;
          tdp_test "solve c0=500 b=999 (tight)" 500 999;
          tdp_bottom_up_test "bottom-up c0=60 b=400 (ablation)" 60 400;
          tdp_test "top-down  c0=60 b=400 (ablation)" 60 400;
        ];
      Test.make_grouped ~name:"selection (one round, c0=500)"
        [
          selection_test "tournament b=2250" Selection.tournament 500 2250;
          selection_test "spread b=2250" Selection.spread 500 2250;
          selection_test "complete b=2250" Selection.complete 500 2250;
          selection_test "greedy b=2250" Selection.greedy 500 2250;
        ];
      Test.make_grouped ~name:"substrates"
        [
          scoring_test "scoring n=1000" 1000;
          rwl_test "rwl n=40 votes=3" 40 3;
          rwl_test "rwl n=40 votes=1" 40 1;
        ];
      Test.make_grouped ~name:"platform (event loop)"
        [
          platform_solo_test "batch_latency q=6750" 6750;
          platform_shared_test "simulate_shared 8 queries, deadlines, tallies";
        ];
      Test.make_grouped ~name:"engine (full MAX run)"
        [
          engine_test "tournament c0=200 b=1200" 200 1200 Selection.tournament;
          engine_test "ct25 c0=200 b=1200" 200 1200 Selection.ct25;
          (* the finite-deadline path: per-round pending queue and
             partial consensus, exercised by a cut-off Fixed deadline
             with carry-forward on the simulated crowd *)
          engine_test "simulated+deadline c0=200 b=1200"
            ~source:
              (Engine.Simulated
                 {
                   platform = Crowdmax_crowd.Platform.create ();
                   rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
                 })
            ~deadline:(Engine.Fixed 200.0) ~straggler:Engine.Carry_forward 200
            1200 Selection.tournament;
        ];
      Test.make_grouped ~name:"ablation: tournament assignment"
        [
          assignment_test "random shuffle" (fun els k ->
              let rng = Rng.create 3 in
              Crowdmax_tournament.Tournament.assign rng els k);
          assignment_test "seeded round-robin" (fun els k ->
              Crowdmax_tournament.Tournament.assign_seeded els k);
        ];
    ]

(* Observability-layer overhead on the hot path: [Engine.replicate]
   vs [Engine.replicate_with_metrics] at n=100 Oracle/Tournament — the
   cheapest per-run config and therefore the worst case for fixed
   per-run instrumentation cost, measured through the replication API
   that real callers (the CLI's --metrics path) actually use.

   The estimator is deliberately paranoid about the box. CPU frequency
   on shared machines drifts by double-digit percentages over the
   seconds separating two bench cases, so comparing two sequential
   table rows measures the drift, not the code. Instead the two sides
   alternate in small blocks (a couple of hundred runs, a few
   milliseconds each) over the whole measurement budget, with the
   within-pair order itself alternating so monotone drift biases
   even and odd pairs in opposite directions; the accumulated per-side
   totals then give one stable ratio instead of a noisy per-window
   comparison. It is the one measurement behind the <= 3% enabled-
   overhead claim; [micro] prints its line after the bechamel table. *)
let metrics_overhead_secs = 2.0

type metrics_overhead = {
  mo_off_rps : float; (* metrics disabled, runs over accumulated time *)
  mo_on_rps : float; (* metrics enabled, runs over accumulated time *)
  mo_overhead_pct : float; (* time-on / time-off - 1, as % *)
}

let engine_metrics_overhead () =
  let n = 100 in
  let b = 8 * n in
  let sol = Tdp.solve (Problem.create ~elements:n ~budget:b ~latency:model) in
  let cfg =
    Engine.config ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
      ~latency_model:model ()
  in
  let block = 200 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let off seed () = Engine.replicate ~runs:block ~seed cfg ~elements:n in
  let on seed () =
    Engine.replicate_with_metrics ~runs:block ~seed cfg ~elements:n
  in
  (* warm both paths *)
  ignore (off 1 ());
  ignore (on 1 ());
  let t_off = ref 0.0 in
  let t_on = ref 0.0 in
  let blocks = ref 0 in
  let deadline = Unix.gettimeofday () +. metrics_overhead_secs in
  let continue_ = ref true in
  while !continue_ do
    let seed = 100 + !blocks in
    if !blocks mod 2 = 0 then begin
      t_off := !t_off +. timed (off seed);
      t_on := !t_on +. timed (on seed)
    end
    else begin
      t_on := !t_on +. timed (on seed);
      t_off := !t_off +. timed (off seed)
    end;
    incr blocks;
    if Unix.gettimeofday () >= deadline then continue_ := false
  done;
  let total_runs = float_of_int (block * !blocks) in
  {
    mo_off_rps = total_runs /. Float.max !t_off 1e-9;
    mo_on_rps = total_runs /. Float.max !t_on 1e-9;
    mo_overhead_pct = ((!t_on /. Float.max !t_off 1e-9) -. 1.0) *. 100.0;
  }

let micro () =
  section "micro-benchmarks (bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let table =
    Crowdmax_util.Table.create
      [ ("benchmark", Crowdmax_util.Table.Left);
        ("time/run", Crowdmax_util.Table.Right);
        ("r²", Crowdmax_util.Table.Right) ]
  in
  let human ns =
    if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
    else if ns < 1_000_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
    else if ns < 1_000_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
    else Printf.sprintf "%.2f s" (ns /. 1_000_000_000.0)
  in
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> human t
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Crowdmax_util.Table.add_row table [ name; time; r2 ])
    rows;
  Crowdmax_util.Table.print table;
  let overhead = engine_metrics_overhead () in
  Printf.printf
    "metrics overhead (replicate, oracle, n=100, interleaved blocks, %.0f s): \
     %+.2f%% (%.1f off vs %.1f on runs/sec)\n"
    metrics_overhead_secs overhead.mo_overhead_pct overhead.mo_off_rps
    overhead.mo_on_rps

(* --- entry point --------------------------------------------------------- *)

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  flush stdout;
  Printf.eprintf "[%s: %.2f s wall]\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let known =
    [
      ("micro", micro); ("opcheck", opcheck);
      ("history-append", history_append);
      ("history-check", history_check);
    ]
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> timed "micro" micro
  | args ->
      List.iter
        (fun a ->
          match
            Option.map snd
              (List.find_opt (fun (n, _) -> String.equal n a) known)
          with
          | Some f -> timed a f
          | None ->
              Printf.eprintf "unknown benchmark %S; known: %s\n" a
                (String.concat ", " (List.map fst known));
              exit 2)
        args
