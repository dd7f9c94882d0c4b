(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) and runs bechamel micro-benchmarks over the
   computational kernels.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig13a       # one figure
     dune exec bench/main.exe -- micro        # only micro-benchmarks
     dune exec bench/main.exe -- figures      # only the paper figures
     CROWDMAX_BENCH_RUNS=100 dune exec bench/main.exe   # paper-scale runs *)

module X = Crowdmax_experiments
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Heuristics = Crowdmax_core.Heuristics
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

(* A malformed CROWDMAX_BENCH_RUNS used to fall back to 30 silently,
   which made typos indistinguishable from the default. Fail loudly. *)
let runs =
  match Sys.getenv_opt "CROWDMAX_BENCH_RUNS" with
  | None -> 30
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some n ->
          Printf.eprintf
            "bench: CROWDMAX_BENCH_RUNS must be a positive integer, got %d\n" n;
          exit 2
      | None ->
          Printf.eprintf
            "bench: CROWDMAX_BENCH_RUNS must be a positive integer, got %S\n" s;
          exit 2)

(* Worker domains for replicated runs; 0 means "all cores". Settable via
   CROWDMAX_JOBS or --jobs/-j on the command line (argv wins). *)
let parse_jobs ~source s =
  match int_of_string_opt (String.trim s) with
  | Some 0 -> Crowdmax_util.Parallel.recommended_jobs ()
  | Some n when n > 128 ->
      Printf.eprintf "bench: %s capped at 128, got %d\n" source n;
      exit 2
  | Some n when n >= 1 -> n
  | Some n ->
      Printf.eprintf "bench: %s must be a non-negative integer, got %d\n" source
        n;
      exit 2
  | None ->
      Printf.eprintf "bench: %s must be a non-negative integer, got %S\n" source
        s;
      exit 2

let jobs =
  ref
    (match Sys.getenv_opt "CROWDMAX_JOBS" with
    | None -> 1
    | Some s -> parse_jobs ~source:"CROWDMAX_JOBS" s)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let model = Model.paper_mturk

(* --- paper figures ------------------------------------------------------ *)

let fig11a () =
  section "Fig 11(a) - L(q) estimation on the simulated platform";
  X.Fig11a.print (X.Fig11a.run ())

let fig11b () =
  section "Fig 11(b) - real-time runs (platform vs estimate), c0=500 b=4000";
  X.Fig11b.print (X.Fig11b.run ~jobs:!jobs ())

let fig12 () =
  section
    (Printf.sprintf "Fig 12(a,b) - question selection algorithms (%d runs)" runs);
  X.Fig12.print (X.Fig12.run ~jobs:!jobs ~runs ())

let fig13a () =
  section
    (Printf.sprintf "Fig 13(a) - latency vs collection size (%d runs)" runs);
  let f = X.Fig13.run_a ~jobs:!jobs ~runs () in
  X.Fig13.print f;
  (* Sec. 6.4 also quotes the allocations behind the coincidences *)
  print_newline ();
  List.iter
    (fun (label, note) ->
      if String.equal label "tDP+Tournament" || String.equal label "uHF+CT25" then
        Printf.printf "  %s\n" note)
    f.X.Fig13.example_allocations

let fig13b () =
  section (Printf.sprintf "Fig 13(b) - latency vs budget (%d runs)" runs);
  X.Fig13.print (X.Fig13.run_b ~jobs:!jobs ~runs ())

let fig14a () =
  section
    (Printf.sprintf "Fig 14(a) - non-linear latency functions (%d runs)" runs);
  X.Fig14.print_a (X.Fig14.run_a ~jobs:!jobs ~runs ())

let fig14b () =
  section "Fig 14(b) - questions used by tDP vs available budget";
  X.Fig14.print_b (X.Fig14.run_b ())

let fig15 () =
  section "Fig 15 - tDP running time";
  X.Fig15.print (X.Fig15.run ())

(* Beyond the paper: per-round re-planning vs the static tDP schedule.
   With pure tournament rounds the two coincide (DP suffix optimality);
   the gain appears when cross-tournament extras over-eliminate. *)
let ablation_adaptive () =
  section "Ablation - adaptive re-planning tDP vs static tDP";
  let table =
    Crowdmax_util.Table.create
      [ ("c0", Crowdmax_util.Table.Right); ("b", Crowdmax_util.Table.Right);
        ("static (s)", Crowdmax_util.Table.Right);
        ("adaptive (s)", Crowdmax_util.Table.Right);
        ("gain", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (c0, b) ->
      let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
      let static = Tdp.solve problem in
      let cfg =
        Engine.config ~allocation:static.Tdp.allocation
          ~selection:Selection.tournament ~latency_model:model ()
      in
      let st = Engine.replicate ~jobs:!jobs ~runs ~seed:3 cfg ~elements:c0 in
      let ad =
        Crowdmax_runtime.Adaptive.replicate ~jobs:!jobs ~runs ~seed:3 ~problem
          ~selection:Selection.tournament ()
      in
      Crowdmax_util.Table.add_row table
        [
          string_of_int c0; string_of_int b;
          Printf.sprintf "%.1f" st.Engine.mean_latency;
          Printf.sprintf "%.1f" ad.Crowdmax_runtime.Adaptive.engine_aggregate.Engine.mean_latency;
          Printf.sprintf "%.1f%%"
            (100.0
            *. (st.Engine.mean_latency
               -. ad.Crowdmax_runtime.Adaptive.engine_aggregate
                    .Engine.mean_latency)
            /. st.Engine.mean_latency);
        ])
    [ (125, 1000); (250, 2000); (500, 4000); (500, 999) ];
  Crowdmax_util.Table.print table

(* Ablation - CT split point sensitivity (Sec. 5.2 / 6.8): latency and
   singleton rate of CT25 / CT50 / CT75 and SPREAD+GREEDY under the tDP
   allocation. *)
let ablation_ct_split () =
  section "Ablation - CT split point (CT25/CT50/CT75, SG25) under tDP";
  let c0 = 500 and b = 4000 in
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  let table =
    Crowdmax_util.Table.create
      [ ("selector", Crowdmax_util.Table.Left);
        ("latency (s)", Crowdmax_util.Table.Right);
        ("singleton", Crowdmax_util.Table.Right);
        ("correct", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun sel ->
      let cfg =
        Engine.config ~allocation:sol.Tdp.allocation ~selection:sel
          ~latency_model:model ()
      in
      let agg = Engine.replicate ~jobs:!jobs ~runs ~seed:7 cfg ~elements:c0 in
      Crowdmax_util.Table.add_row table
        [
          sel.Selection.name;
          Printf.sprintf "%.1f" agg.Engine.mean_latency;
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.singleton_rate);
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.correct_rate);
        ])
    [
      Selection.tournament; Selection.ct25; Selection.ct50; Selection.ct75;
      Selection.sg 0.25; Selection.spread; Selection.complete; Selection.greedy;
    ];
  Crowdmax_util.Table.print table

(* Ablation - RWL repetition factor: answer accuracy and correct-MAX
   rate as votes grow, at fixed worker error. *)
let ablation_rwl () =
  section "Ablation - RWL repetition factor (15% worker error, c0=100)";
  let c0 = 100 and b = 800 in
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  let platform = Crowdmax_crowd.Platform.create () in
  let table =
    Crowdmax_util.Table.create
      [ ("votes", Crowdmax_util.Table.Right);
        ("correct MAX", Crowdmax_util.Table.Right);
        ("mean latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun votes ->
      let cfg =
        Engine.config
          ~source:
            (Engine.Simulated
               { platform; rwl = { Rwl.votes; error = W.Uniform 0.15 } })
          ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
          ~latency_model:model ()
      in
      let agg = Engine.replicate ~jobs:!jobs ~runs ~seed:11 cfg ~elements:c0 in
      Crowdmax_util.Table.add_row table
        [
          string_of_int votes;
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.correct_rate);
          Printf.sprintf "%.0f" agg.Engine.mean_latency;
        ])
    [ 1; 3; 5; 7 ];
  Crowdmax_util.Table.print table

(* Extension - top-k via successive MAX with answer reuse, vs k naive
   independent MAX runs. *)
let extension_topk () =
  section "Extension - top-k with answer reuse vs naive repetition";
  let table =
    Crowdmax_util.Table.create
      [ ("c0", Crowdmax_util.Table.Right); ("k", Crowdmax_util.Table.Right);
        ("reuse (s)", Crowdmax_util.Table.Right);
        ("naive (s)", Crowdmax_util.Table.Right);
        ("reuse questions", Crowdmax_util.Table.Right);
        ("exact", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (c0, k, b) ->
      let master = Crowdmax_util.Rng.create 5 in
      let reuse_lat = ref 0.0 and naive_lat = ref 0.0 in
      let reuse_q = ref 0 and exact = ref 0 in
      let trials = max 3 (runs / 5) in
      for _ = 1 to trials do
        let rng = Crowdmax_util.Rng.split master in
        let truth = G.random rng c0 in
        let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
        let r =
          Crowdmax_topk.Topk.run rng ~k ~problem
            ~selection:Selection.tournament truth
        in
        reuse_lat := !reuse_lat +. r.Crowdmax_topk.Topk.total_latency;
        reuse_q := !reuse_q + r.Crowdmax_topk.Topk.questions_posted;
        if r.Crowdmax_topk.Topk.exact then incr exact;
        (* naive: k independent MAX runs over shrinking budgets *)
        for pass = 0 to k - 1 do
          let sub =
            Problem.create ~elements:(c0 - pass) ~budget:(b / k) ~latency:model
          in
          let sol = Tdp.solve sub in
          let cfg =
            Engine.config ~allocation:sol.Tdp.allocation
              ~selection:Selection.tournament ~latency_model:model ()
          in
          let t = G.random rng (c0 - pass) in
          let res = Engine.run rng cfg t in
          naive_lat := !naive_lat +. res.Engine.total_latency
        done
      done;
      let f = float_of_int trials in
      Crowdmax_util.Table.add_row table
        [
          string_of_int c0; string_of_int k;
          Printf.sprintf "%.0f" (!reuse_lat /. f);
          Printf.sprintf "%.0f" (!naive_lat /. f);
          Printf.sprintf "%.0f" (float_of_int !reuse_q /. f);
          Printf.sprintf "%d/%d" !exact trials;
        ])
    [ (100, 3, 1200); (300, 3, 3000); (300, 5, 5000) ];
  Crowdmax_util.Table.print table

(* Extension - SORT in rounds: the same cost-latency tradeoff on the
   sibling operator, under overhead-heavy and question-heavy L. *)
let extension_sort () =
  section "Extension - SORT strategies (n = 40)";
  let n = 40 in
  let strategies =
    [ Crowdmax_sort.Sort.All_pairs; Crowdmax_sort.Sort.Odd_even;
      Crowdmax_sort.Sort.Odd_even_skip ]
  in
  let models =
    [ ("L=239+0.06q (MTurk)", model);
      ("L=10+2q (question-heavy)", Model.linear ~delta:10.0 ~alpha:2.0) ]
  in
  let table =
    Crowdmax_util.Table.create
      (("strategy", Crowdmax_util.Table.Left)
      :: ("questions", Crowdmax_util.Table.Right)
      :: ("rounds", Crowdmax_util.Table.Right)
      :: List.map (fun (l, _) -> (l, Crowdmax_util.Table.Right)) models)
  in
  List.iter
    (fun strategy ->
      let rng = Crowdmax_util.Rng.create 11 in
      let truth = G.random rng n in
      let runs_for m =
        (Crowdmax_sort.Sort.run rng ~strategy ~latency:m truth, ())
      in
      let base, () = runs_for model in
      Crowdmax_util.Table.add_row table
        (Crowdmax_sort.Sort.strategy_name strategy
        :: string_of_int base.Crowdmax_sort.Sort.questions_posted
        :: string_of_int base.Crowdmax_sort.Sort.rounds_run
        :: List.map
             (fun (_, m) ->
               let r, () = runs_for m in
               Printf.sprintf "%.0f s" r.Crowdmax_sort.Sort.total_latency)
             models))
    strategies;
  Crowdmax_util.Table.print table

(* Extension - posting time on a diurnal platform: the same batch is
   slower when posted at the availability trough. *)
let extension_diurnal () =
  section "Extension - diurnal worker availability (batch of 80)";
  let cfg phase =
    {
      Crowdmax_crowd.Platform.default_config with
      Crowdmax_crowd.Platform.diurnal_amplitude = 0.9;
      diurnal_period = 4000.0;
      diurnal_phase = phase;
      base_rate = 0.01;
      attract_per_question = 0.0001;
    }
  in
  let table =
    Crowdmax_util.Table.create
      [ ("posting time", Crowdmax_util.Table.Left);
        ("mean latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun (label, phase) ->
      let p = Crowdmax_crowd.Platform.create ~config:(cfg phase) () in
      let rng = Crowdmax_util.Rng.create 13 in
      let xs =
        Array.init (max 10 runs) (fun _ ->
            Crowdmax_crowd.Platform.batch_latency p rng 80)
      in
      Crowdmax_util.Table.add_row table
        [ label; Printf.sprintf "%.0f" (Crowdmax_util.Stats.mean xs) ])
    [ ("peak availability", 1000.0); ("mid", 0.0); ("trough", 3000.0) ];
  Crowdmax_util.Table.print table

(* Extension - the cost-latency skyline: dollars (at the paper's $0.01 a
   question) against the optimal latency each budget buys. *)
let extension_frontier () =
  section "Extension - cost-latency Pareto frontier (c0 = 500, $0.01/question)";
  let budgets = [ 499; 750; 1000; 1500; 2000; 3000; 4000; 8000 ] in
  let pts =
    Crowdmax_core.Cost.frontier ~latency:model ~elements:500 ~budgets ()
  in
  let table =
    Crowdmax_util.Table.create
      [ ("budget (questions)", Crowdmax_util.Table.Right);
        ("spend ($)", Crowdmax_util.Table.Right);
        ("optimal latency (s)", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun pt ->
      Crowdmax_util.Table.add_row table
        [
          string_of_int pt.Crowdmax_core.Cost.budget;
          Printf.sprintf "%.2f" pt.Crowdmax_core.Cost.dollars;
          Printf.sprintf "%.1f" pt.Crowdmax_core.Cost.latency;
        ])
    pts;
  Crowdmax_util.Table.print table

let extension_robustness () =
  section "Extension - error robustness sweep";
  X.Robustness.print (X.Robustness.run ~jobs:!jobs ~runs:(max 10 (runs / 2)) ())

let ablations () =
  ablation_adaptive ();
  ablation_ct_split ();
  ablation_rwl ();
  extension_topk ();
  extension_sort ();
  extension_diurnal ();
  extension_frontier ();
  extension_robustness ()

let findings () =
  section "Sec. 6.8 - the paper's summary findings, re-derived";
  X.Findings.print (X.Findings.run ~jobs:!jobs ~runs ())

let figures () =
  fig11a ();
  fig11b ();
  fig12 ();
  fig13a ();
  fig13b ();
  fig14a ();
  fig14b ();
  fig15 ();
  findings ()

(* --- engine throughput bench -------------------------------------------- *)

(* Times full [Engine.run] calls (runs/sec) on the hot path the sweeps
   are gated on, and records the result in BENCH_engine.json so the perf
   trajectory of the engine is tracked across PRs. Smoke-scale in CI via
   CROWDMAX_ENGINE_BENCH_SECS; CROWDMAX_ENGINE_BENCH_WRITE=0 keeps CI
   from overwriting the committed baseline. *)

let engine_bench_file = "BENCH_engine.json"

let engine_bench_secs =
  match Sys.getenv_opt "CROWDMAX_ENGINE_BENCH_SECS" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some f when f > 0.0 -> f
      | _ ->
          Printf.eprintf
            "bench: CROWDMAX_ENGINE_BENCH_SECS must be a positive number, got %S\n"
            s;
          exit 2)

let engine_bench_write =
  match Sys.getenv_opt "CROWDMAX_ENGINE_BENCH_WRITE" with
  | Some ("0" | "false" | "no") -> false
  | _ -> true

type engine_bench_row = {
  eb_n : int;
  eb_source : string;
  eb_selector : string;
  eb_runs : int;
  eb_wall : float;
  eb_rps : float;
}

(* The canonical simulated bench config for [n] elements: budget 8n,
   tDP allocation, tournament selection, 3-vote RWL at 15% worker
   error. Shared between the throughput rows and the operation-count
   gate below, so the gate pins exactly the work the bench times. *)
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

let engine_bench_cases () =
  let module P = Crowdmax_crowd.Platform in
  List.concat_map
    (fun n ->
      let b = 8 * n in
      let sol = Tdp.solve (Problem.create ~elements:n ~budget:b ~latency:model) in
      let oracle =
        Engine.config ~allocation:sol.Tdp.allocation
          ~selection:Selection.tournament ~latency_model:model ()
      in
      let simulated = engine_sim_config n in
      (* the finite-deadline path adds per-round bookkeeping (pending
         queue, partial consensus); a cut-off Fixed deadline with
         carry-forward exercises all of it, and doubles as the CI smoke
         for deadline-bounded rounds *)
      let deadlined =
        Engine.config
          ~source:
            (Engine.Simulated
               {
                 platform = P.create ();
                 rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
               })
          ~deadline:(Engine.Fixed 200.0) ~straggler:Engine.Carry_forward
          ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
          ~latency_model:model ()
      in
      [
        (n, "oracle", oracle);
        (n, "simulated", simulated);
        (n, "simulated+deadline", deadlined);
      ])
    [ 50; 100; 500 ]

(* Three equal measurement windows per case; the reported runs/sec is the
   best window. CPU frequency on shared boxes wanders by double-digit
   percentages between seconds, so a single window measures the box's
   mood as much as the code; the best window is the stablest estimate of
   what the code can do. [eb_runs] / [eb_wall] stay totals over all
   windows. *)
let engine_bench_windows = 3

let engine_bench_measure (n, source, cfg) =
  let master = Rng.create 99 in
  let window_secs = engine_bench_secs /. float_of_int engine_bench_windows in
  let total_runs = ref 0 in
  let best_rps = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  (* [Engine.runner] is the replication-loop entry point: identical
     draws and results to [Engine.run], with policy validation,
     instrument registration and simulation scratch hoisted out of the
     measured loop — the same shape [Engine.replicate] runs per worker. *)
  let run = Engine.runner cfg in
  for _ = 1 to engine_bench_windows do
    let w0 = Unix.gettimeofday () in
    let deadline = w0 +. window_secs in
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let rng = Rng.split master in
      let truth = G.random rng n in
      ignore (run rng truth);
      incr count;
      if !count >= 3 && Unix.gettimeofday () >= deadline then
        continue_ := false
    done;
    let wall = Unix.gettimeofday () -. w0 in
    let rps = float_of_int !count /. Float.max wall 1e-9 in
    total_runs := !total_runs + !count;
    if rps > !best_rps then best_rps := rps
  done;
  let wall = Unix.gettimeofday () -. t0 in
  {
    eb_n = n;
    eb_source = source;
    eb_selector = "Tournament";
    eb_runs = !total_runs;
    eb_wall = wall;
    eb_rps = !best_rps;
  }

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
   comparison. *)
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
  let deadline = Unix.gettimeofday () +. (2.0 *. engine_bench_secs) in
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

(* --- planner throughput bench ------------------------------------------- *)

(* Times [Tdp.solve] itself: cold solves (fresh plan cache every call,
   tables and arena rebuilt from scratch) against the boxed
   [Tdp.solve_hashtbl] reference solver, and warm incremental budget
   sweeps (one shared cache per sweep — the Fig 13(b)/14(b) access
   pattern) against the same sweep done with independent hashtbl
   solves. Both solvers compute bit-identical solutions, so the ratio
   is pure representation: flat arena + packed keys vs hashtbl over
   boxed (int * int) keys. *)
type planner_bench = {
  pl_c0 : int;
  pl_budget : int;
  pl_flat_rps : float; (* cold flat-arena solves/sec *)
  pl_hashtbl_rps : float; (* reference hashtbl solves/sec *)
  pl_states : int; (* DP states settled by one cold solve *)
  pl_sweep_points : int;
  pl_sweep_lo : int; (* smallest budget in the sweep grid *)
  pl_sweep_hi : int; (* largest budget in the sweep grid *)
  pl_prime_secs : float; (* one incremental fresh-cache pass over the grid *)
  pl_prime_states : int; (* DP states that pass settles *)
  pl_sweep_rps : float; (* warm (primed-cache) sweeps/sec *)
  pl_sweep_hashtbl_rps : float; (* independent hashtbl sweeps/sec *)
}

(* Same best-of-windows discipline as the engine rows. *)
let planner_rate f =
  let window_secs = engine_bench_secs /. float_of_int engine_bench_windows in
  let best = ref 0.0 in
  for _ = 1 to engine_bench_windows do
    let w0 = Unix.gettimeofday () in
    let deadline = w0 +. window_secs in
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      f ();
      incr count;
      if Unix.gettimeofday () >= deadline then continue_ := false
    done;
    let rate =
      float_of_int !count /. Float.max (Unix.gettimeofday () -. w0) 1e-9
    in
    if rate > !best then best := rate
  done;
  !best

let planner_bench () =
  let c0 = 1000 and budget = 8000 in
  let problem = Problem.create ~elements:c0 ~budget ~latency:model in
  let states = (Tdp.solve problem).Tdp.states_visited in
  let flat_rps = planner_rate (fun () -> ignore (Tdp.solve problem)) in
  let hashtbl_rps =
    planner_rate (fun () -> ignore (Tdp.solve_hashtbl problem))
  in
  (* The Fig. 15 workload: a 20-point budget grid spanning multiples
     2x..16x of the collection size. One incremental pass over the grid
     with a fresh cache primes it (timed and reported — that is what a
     first sweep costs); the warm sweep then re-solves all 20 points on
     the primed cache, which is fig15's warm grid and the Adaptive
     replan pattern: every state is settled, each solve is a root
     lookup plus sequence reconstruction. The baseline pays the full
     seed solver 20 times, as every sweep did before the cache. *)
  let sweep_points = 20 in
  let sweep_lo = 2 * c0 and sweep_hi = 16 * c0 in
  let sweep_problems =
    List.init sweep_points (fun i ->
        Problem.create ~elements:c0
          ~budget:(sweep_lo + (i * (sweep_hi - sweep_lo) / (sweep_points - 1)))
          ~latency:model)
  in
  let cache = Tdp.Cache.create () in
  let t0 = Unix.gettimeofday () in
  List.iter (fun p -> ignore (Tdp.solve ~cache p)) sweep_problems;
  let prime_secs = Unix.gettimeofday () -. t0 in
  let prime_states = Tdp.Cache.states_settled cache in
  let sweep_rps =
    planner_rate (fun () ->
        List.iter (fun p -> ignore (Tdp.solve ~cache p)) sweep_problems)
  in
  let sweep_hashtbl_rps =
    planner_rate (fun () ->
        List.iter (fun p -> ignore (Tdp.solve_hashtbl p)) sweep_problems)
  in
  {
    pl_c0 = c0;
    pl_budget = budget;
    pl_flat_rps = flat_rps;
    pl_hashtbl_rps = hashtbl_rps;
    pl_states = states;
    pl_sweep_points = sweep_points;
    pl_sweep_lo = sweep_lo;
    pl_sweep_hi = sweep_hi;
    pl_prime_secs = prime_secs;
    pl_prime_states = prime_states;
    pl_sweep_rps = sweep_rps;
    pl_sweep_hashtbl_rps = sweep_hashtbl_rps;
  }

let planner_json p =
  let module J = Crowdmax_util.Json in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  J.Obj
    [
      ("c0", J.int p.pl_c0);
      ("budget", J.int p.pl_budget);
      ("cold_solves_per_sec", J.Float p.pl_flat_rps);
      ("hashtbl_solves_per_sec", J.Float p.pl_hashtbl_rps);
      ("cold_speedup_vs_hashtbl", J.Float (ratio p.pl_flat_rps p.pl_hashtbl_rps));
      ("states_per_solve", J.int p.pl_states);
      ("states_per_sec", J.Float (float_of_int p.pl_states *. p.pl_flat_rps));
      ("sweep_points", J.int p.pl_sweep_points);
      ("sweep_budget_lo", J.int p.pl_sweep_lo);
      ("sweep_budget_hi", J.int p.pl_sweep_hi);
      ("sweep_prime_seconds", J.Float p.pl_prime_secs);
      ("sweep_prime_states", J.int p.pl_prime_states);
      ("warm_sweeps_per_sec", J.Float p.pl_sweep_rps);
      ("hashtbl_sweeps_per_sec", J.Float p.pl_sweep_hashtbl_rps);
      ( "warm_sweep_speedup",
        J.Float (ratio p.pl_sweep_rps p.pl_sweep_hashtbl_rps) );
    ]

let engine_row_json r =
  let module J = Crowdmax_util.Json in
  J.Obj
    [
      ("n", J.int r.eb_n);
      ("source", J.String r.eb_source);
      ("selector", J.String r.eb_selector);
      ("runs", J.int r.eb_runs);
      ("wall_seconds", J.Float r.eb_wall);
      ("runs_per_sec", J.Float r.eb_rps);
    ]

let engine_bench_json rows overhead planner =
  let module J = Crowdmax_util.Json in
  J.Obj
    [
      ("schema", J.String "crowdmax-bench-engine/v1");
      ("windows_per_case", J.int engine_bench_windows);
      (* Which dune profile produced the numbers: the dev profile
         compiles with -opaque, which blocks the cross-module [@inline]
         the simulator hot path depends on, so dev and release numbers
         are not comparable. [make bench] builds release. *)
      ("build_profile", J.String Build_profile.value);
      ( "metrics_overhead",
        J.Obj
          [
            ("n", J.int 100);
            ("source", J.String "oracle");
            ("off_runs_per_sec", J.Float overhead.mo_off_rps);
            ("on_runs_per_sec", J.Float overhead.mo_on_rps);
            ("overhead_pct", J.Float overhead.mo_overhead_pct);
          ] );
      ("planner", planner_json planner);
      ("results", J.List (List.map engine_row_json rows));
    ]

(* --- commit-keyed history ------------------------------------------------ *)

(* One compact JSONL row per [make bench] run, appended (never
   rewritten), so the perf trajectory survives the snapshot file being
   overwritten each run. Keyed by commit so rows can be joined back to
   the code that produced them. *)
let bench_history_file = "BENCH_history.jsonl"

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when not (String.equal line "") -> line
    | _ -> "unknown"
  with _ -> "unknown"

let bench_history_json ~commit rows overhead planner =
  let module J = Crowdmax_util.Json in
  J.Obj
    [
      ("schema", J.String "crowdmax-bench-history/v1");
      ("commit", J.String commit);
      ("unix_time", J.Float (Unix.time ()));
      ("build_profile", J.String Build_profile.value);
      ("engine", J.List (List.map engine_row_json rows));
      ("planner", planner_json planner);
      ("metrics_overhead_pct", J.Float overhead.mo_overhead_pct);
    ]

let append_bench_history doc =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 bench_history_file
  in
  output_string oc (Crowdmax_util.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* The committed baseline, as (n, source, selector) -> runs/sec. *)
let engine_bench_baseline () =
  let module J = Crowdmax_util.Json in
  if not (Sys.file_exists engine_bench_file) then []
  else
    let ic = open_in engine_bench_file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match J.member "results" (J.of_string s) with
    | Some (J.List rows) ->
        List.filter_map
          (fun row ->
            match
              ( Option.bind (J.member "n" row) J.to_int,
                Option.bind (J.member "source" row) J.to_str,
                Option.bind (J.member "selector" row) J.to_str,
                Option.bind (J.member "runs_per_sec" row) J.to_float )
            with
            | Some n, Some src, Some sel, Some rps -> Some ((n, src, sel), rps)
            | _ -> None)
          rows
    | _ -> []

let engine_bench () =
  (* A run allocates tens of KB (truth, DAG, question list); with the
     default 2 MB minor heap the GC cadence becomes part of the
     measurement. A larger minor heap makes the numbers about the engine,
     not the collector's default tuning. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  section
    (Printf.sprintf
       "engine throughput (runs/sec, best of %d windows, >= %.2f s per case, \
        %s build)"
       engine_bench_windows engine_bench_secs Build_profile.value);
  let baseline =
    try engine_bench_baseline ()
    with _ ->
      Printf.eprintf "bench: could not parse %s; ignoring baseline\n"
        engine_bench_file;
      []
  in
  let rows = List.map engine_bench_measure (engine_bench_cases ()) in
  let table =
    Crowdmax_util.Table.create
      [ ("n", Crowdmax_util.Table.Right);
        ("source", Crowdmax_util.Table.Left);
        ("selector", Crowdmax_util.Table.Left);
        ("runs", Crowdmax_util.Table.Right);
        ("runs/sec", Crowdmax_util.Table.Right);
        ("committed", Crowdmax_util.Table.Right);
        ("speedup", Crowdmax_util.Table.Right) ]
  in
  List.iter
    (fun r ->
      let old =
        Option.map snd
          (List.find_opt
             (fun ((n, src, sel), _) ->
               n = r.eb_n
               && String.equal src r.eb_source
               && String.equal sel r.eb_selector)
             baseline)
      in
      Crowdmax_util.Table.add_row table
        [
          string_of_int r.eb_n; r.eb_source; r.eb_selector;
          string_of_int r.eb_runs;
          Printf.sprintf "%.1f" r.eb_rps;
          (match old with Some o -> Printf.sprintf "%.1f" o | None -> "-");
          (match old with
          | Some o when o > 0.0 -> Printf.sprintf "%.2fx" (r.eb_rps /. o)
          | _ -> "-");
        ])
    rows;
  Crowdmax_util.Table.print table;
  let overhead = engine_metrics_overhead () in
  Printf.printf
    "metrics overhead (replicate, oracle, n=100, interleaved blocks): %+.2f%% (%.1f off vs %.1f on runs/sec)\n"
    overhead.mo_overhead_pct overhead.mo_off_rps overhead.mo_on_rps;
  let planner = planner_bench () in
  let ptable =
    Crowdmax_util.Table.create
      ~title:
        (Printf.sprintf "planner throughput (c0=%d, best of %d windows)"
           planner.pl_c0 engine_bench_windows)
      [ ("case", Crowdmax_util.Table.Left);
        ("flat/sec", Crowdmax_util.Table.Right);
        ("hashtbl/sec", Crowdmax_util.Table.Right);
        ("speedup", Crowdmax_util.Table.Right) ]
  in
  let pr_row label a b =
    Crowdmax_util.Table.add_row ptable
      [
        label;
        Printf.sprintf "%.1f" a;
        Printf.sprintf "%.1f" b;
        (if b > 0.0 then Printf.sprintf "%.2fx" (a /. b) else "-");
      ]
  in
  pr_row
    (Printf.sprintf "cold solve b=%d" planner.pl_budget)
    planner.pl_flat_rps planner.pl_hashtbl_rps;
  pr_row
    (Printf.sprintf "warm %d-pt sweep b=%d..%d" planner.pl_sweep_points
       planner.pl_sweep_lo planner.pl_sweep_hi)
    planner.pl_sweep_rps planner.pl_sweep_hashtbl_rps;
  Crowdmax_util.Table.print ptable;
  Printf.printf "planner: %d DP states/cold solve, %.2fM states/sec\n"
    planner.pl_states
    (float_of_int planner.pl_states *. planner.pl_flat_rps /. 1e6);
  Printf.printf
    "planner: priming the sweep cache took %.3fs (%d states, paid once)\n"
    planner.pl_prime_secs planner.pl_prime_states;
  if engine_bench_write then begin
    let oc = open_out engine_bench_file in
    output_string oc
      (Crowdmax_util.Json.to_string ~pretty:true
         (engine_bench_json rows overhead planner));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" engine_bench_file;
    let commit = git_commit () in
    append_bench_history (bench_history_json ~commit rows overhead planner);
    Printf.printf "appended commit %s to %s\n%!" commit bench_history_file
  end
  else
    Printf.printf "(CROWDMAX_ENGINE_BENCH_WRITE=0: %s and %s left untouched)\n%!"
      engine_bench_file bench_history_file

(* --- deterministic operation-count gate ---------------------------------- *)

(* Platform counters record only simulated quantities, so for a fixed
   (n, seed, runs) they are bit-deterministic: same totals on any
   machine, any [jobs], metrics on or off. Pinning them turns "the
   event loop still does exactly this work" into a CI failure instead
   of a silent drift — an accounting change that survives the
   statistical goldens, or an optimization that quietly skips or
   duplicates events, both land here with the counter named. The
   [events_drained = worker_arrivals + completions] identity (the
   Platform.simulate contract) is checked independently of the pins.
   After an intentional semantic change, regenerate the table with
   CROWDMAX_OPCHECK_PRINT=1. *)
let engine_opcheck_runs = 5
let engine_opcheck_seed = 99

let engine_opcheck_expected =
  (* n, events_drained, worker_arrivals, completions *)
  [ (100, 6641, 926, 5715); (500, 60618, 8493, 52125) ]

let engine_opcheck () =
  section
    (Printf.sprintf "engine operation-count gate (simulated, %d runs, seed %d)"
       engine_opcheck_runs engine_opcheck_seed);
  let print_mode = Option.is_some (Sys.getenv_opt "CROWDMAX_OPCHECK_PRINT") in
  let failures = ref 0 in
  let count snap name =
    match Metrics.find snap ~section:"platform" name with
    | Some (Metrics.Count c) -> c
    | _ ->
        Printf.printf "  platform/%s missing from snapshot\n" name;
        incr failures;
        -1
  in
  List.iter
    (fun (n, exp_events, exp_arrivals, exp_completions) ->
      let cfg = engine_sim_config n in
      let _agg, snap =
        Engine.replicate_with_metrics ~runs:engine_opcheck_runs
          ~seed:engine_opcheck_seed cfg ~elements:n
      in
      let events = count snap "events_drained" in
      let arrivals = count snap "worker_arrivals" in
      let completions = count snap "completions" in
      if print_mode then
        Printf.printf "    (%d, %d, %d, %d);\n%!" n events arrivals completions
      else begin
        let check name got expected =
          if got <> expected then begin
            Printf.printf "  n=%d platform/%s = %d, pinned %d\n" n name got
              expected;
            incr failures
          end
        in
        check "events_drained" events exp_events;
        check "worker_arrivals" arrivals exp_arrivals;
        check "completions" completions exp_completions;
        if events <> arrivals + completions then begin
          Printf.printf
            "  n=%d events_drained %d <> worker_arrivals %d + completions %d\n"
            n events arrivals completions;
          incr failures
        end;
        if !failures = 0 then
          Printf.printf
            "  n=%d ok: events_drained %d = %d arrivals + %d completions\n" n
            events arrivals completions
      end)
    engine_opcheck_expected;
  if !failures > 0 then begin
    Printf.printf "operation-count gate FAILED (%d mismatches)\n%!" !failures;
    exit 1
  end

(* --- planner operation-count gate ---------------------------------------- *)

(* The tDP planner is pure integer/float arithmetic over a fixed scan
   order, so its counters are bit-deterministic on any machine and
   build. Pinning them turns an accidental change to the DP scan order,
   the upper-bound pruning, or the memoization policy into a named CI
   failure; the cached-sweep scenario additionally pins the cross-solve
   cache protocol — how many solves reuse the tables and that warm
   re-solves settle zero new states. Regenerate the tables with
   CROWDMAX_OPCHECK_PRINT=1 after an intentional planner change. *)

let planner_opcheck_cold_expected =
  (* c0, b, states_visited, memo_hits, memo_misses, ub_pruned_branches,
     ub_entries. The last row is a lean budget (2 c0) at c0=1000: the
     round-count bound settles ~10^2 states there against 84283 without
     it, so a refactor that silently disables the bound fails this pin
     loudly. ub_entries (Tdp.Cache.ub_entries, not a metrics counter)
     pins the on-demand unconstrained table: c0 - 1 would mean the
     eager build came back. *)
  [
    (40, 108, 1, 1, 1, 30, 3);
    (200, 1600, 1, 1, 1, 182, 6);
    (500, 999, 4, 4, 4, 878, 5);
    (500, 4000, 1, 1, 1, 461, 9);
    (1000, 2000, 127, 184, 127, 46662, 35);
  ]

(* c0=300: first budget is binding (c0*2 - 1), the middle ones span the
   clamp boundary, and the last repeats an earlier budget so the final
   solve is a pure arena replay. *)
let planner_opcheck_sweep_c0 = 300
let planner_opcheck_sweep_budgets = [ 599; 1200; 2400; 4800; 1200 ]

let planner_opcheck_sweep_expected =
  (* states_visited, memo_hits, memo_misses, ub_pruned_branches,
     plan_cache_hits, plan_cache_misses — totals over the sweep *)
  (7, 10, 7, 1311, 4, 1)

let planner_opcheck () =
  section "planner operation-count gate (deterministic DP counters)";
  let print_mode = Option.is_some (Sys.getenv_opt "CROWDMAX_OPCHECK_PRINT") in
  let failures = ref 0 in
  let count snap name =
    match Metrics.find snap ~section:"planner" name with
    | Some (Metrics.Count c) -> c
    | _ ->
        Printf.printf "  planner/%s missing from snapshot\n" name;
        incr failures;
        -1
  in
  let check label name got expected =
    if got <> expected then begin
      Printf.printf "  %s planner/%s = %d, pinned %d\n" label name got expected;
      incr failures
    end
  in
  List.iter
    (fun (c0, b, exp_states, exp_hits, exp_misses, exp_pruned, exp_ub) ->
      let metrics = Metrics.create () in
      let cache = Tdp.Cache.create () in
      let sol =
        Tdp.solve ~metrics ~cache
          (Problem.create ~elements:c0 ~budget:b ~latency:model)
      in
      let ub = Tdp.Cache.ub_entries cache in
      let snap = Metrics.snapshot metrics in
      let states = count snap "states_visited" in
      let hits = count snap "memo_hits" in
      let misses = count snap "memo_misses" in
      let pruned = count snap "ub_pruned_branches" in
      if print_mode then
        Printf.printf "    (%d, %d, %d, %d, %d, %d, %d);\n%!" c0 b states hits
          misses pruned ub
      else begin
        let label = Printf.sprintf "cold c0=%d b=%d" c0 b in
        check label "states_visited" states exp_states;
        check label "memo_hits" hits exp_hits;
        check label "memo_misses" misses exp_misses;
        check label "ub_pruned_branches" pruned exp_pruned;
        check label "ub_entries" ub exp_ub;
        (* the solve's own accounting must agree with the counter *)
        check label "states_visited(sol)" sol.Tdp.states_visited exp_states;
        if !failures = 0 then
          Printf.printf
            "  %s ok: %d states, %d hits, %d misses, %d pruned, %d ub entries\n"
            label states hits misses pruned ub
      end)
    planner_opcheck_cold_expected;
  (* cached sweep: one cache and one metrics registry across all solves *)
  let metrics = Metrics.create () in
  let cache = Tdp.Cache.create () in
  let last_states = ref (-1) in
  List.iter
    (fun b ->
      let sol =
        Tdp.solve ~metrics ~cache
          (Problem.create ~elements:planner_opcheck_sweep_c0 ~budget:b
             ~latency:model)
      in
      last_states := sol.Tdp.states_visited)
    planner_opcheck_sweep_budgets;
  let snap = Metrics.snapshot metrics in
  let states = count snap "states_visited" in
  let hits = count snap "memo_hits" in
  let misses = count snap "memo_misses" in
  let pruned = count snap "ub_pruned_branches" in
  let c_hits = count snap "plan_cache_hits" in
  let c_misses = count snap "plan_cache_misses" in
  if print_mode then
    Printf.printf "  sweep: (%d, %d, %d, %d, %d, %d)\n%!" states hits misses
      pruned c_hits c_misses
  else begin
    let exp_states, exp_hits, exp_misses, exp_pruned, exp_chits, exp_cmisses =
      planner_opcheck_sweep_expected
    in
    let label =
      Printf.sprintf "sweep c0=%d (%d budgets)" planner_opcheck_sweep_c0
        (List.length planner_opcheck_sweep_budgets)
    in
    check label "states_visited" states exp_states;
    check label "memo_hits" hits exp_hits;
    check label "memo_misses" misses exp_misses;
    check label "ub_pruned_branches" pruned exp_pruned;
    check label "plan_cache_hits" c_hits exp_chits;
    check label "plan_cache_misses" c_misses exp_cmisses;
    (* the final solve repeats an earlier budget: pure replay *)
    check label "replayed_solve_new_states" !last_states 0;
    if !failures = 0 then
      Printf.printf
        "  %s ok: %d states, %d hits, %d misses, %d pruned, %d/%d cache \
         hits/misses\n"
        label states hits misses pruned c_hits c_misses
  end;
  if !failures > 0 then begin
    Printf.printf "planner operation-count gate FAILED (%d mismatches)\n%!"
      !failures;
    exit 1
  end

(* --- adaptive closed-loop operation-count gate ---------------------------- *)

(* The closed loop's counters (replans, refits, drift detections,
   drift-triggered replans) are pure simulated bookkeeping, so for a
   fixed (problem, seed, runs, shift) they are bit-deterministic like
   the platform and planner counters above. Pinning them catches a
   detector or re-fit policy change that slips past the statistical
   goldens — a drift threshold applied to the wrong quantity, a window
   that stops clearing, a re-fit that silently stops installing. The
   scenario is a mid-run supply drop (the Fig_adapt shape, scaled down),
   run at jobs=1 and jobs=4 so the gate also re-asserts the replicate
   determinism contract on every CI run. Regenerate with
   CROWDMAX_OPCHECK_PRINT=1 after an intentional change. *)
let adaptive_opcheck_runs = 6
let adaptive_opcheck_seed = 107

let adaptive_opcheck_expected =
  (* total_replans, total_refits, total_drift_detected,
     total_replans_on_drift *)
  (18, 7, 7, 6)

let adaptive_opcheck_scaled_source scale =
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

let adaptive_opcheck_replicate jobs =
  Adaptive.replicate ~jobs
    ~source:(adaptive_opcheck_scaled_source 1.0)
    ~refit:(Adaptive.On_drift 0.5)
    ~source_shift:(1, adaptive_opcheck_scaled_source 0.2)
    ~runs:adaptive_opcheck_runs ~seed:adaptive_opcheck_seed
    ~problem:(Problem.create ~elements:150 ~budget:450 ~latency:model)
    ~selection:Selection.tournament ()

let adaptive_opcheck () =
  section
    (Printf.sprintf
       "adaptive closed-loop operation-count gate (%d runs, seed %d)"
       adaptive_opcheck_runs adaptive_opcheck_seed);
  let print_mode = Option.is_some (Sys.getenv_opt "CROWDMAX_OPCHECK_PRINT") in
  let failures = ref 0 in
  let agg = adaptive_opcheck_replicate 1 in
  if print_mode then
    Printf.printf "  (%d, %d, %d, %d)\n%!" agg.Adaptive.total_replans
      agg.Adaptive.total_refits agg.Adaptive.total_drift_detected
      agg.Adaptive.total_replans_on_drift
  else begin
    let exp_replans, exp_refits, exp_drift, exp_on_drift =
      adaptive_opcheck_expected
    in
    let check name got expected =
      if got <> expected then begin
        Printf.printf "  adaptive/%s = %d, pinned %d\n" name got expected;
        incr failures
      end
    in
    check "replans" agg.Adaptive.total_replans exp_replans;
    check "refits" agg.Adaptive.total_refits exp_refits;
    check "drift_detected" agg.Adaptive.total_drift_detected exp_drift;
    check "replans_on_drift" agg.Adaptive.total_replans_on_drift exp_on_drift;
    (* drift-triggered replans can't exceed installed re-fits, and the
       detector must have fired at least once per re-fit *)
    if agg.Adaptive.total_replans_on_drift > agg.Adaptive.total_refits then begin
      Printf.printf "  replans_on_drift %d > refits %d\n"
        agg.Adaptive.total_replans_on_drift agg.Adaptive.total_refits;
      incr failures
    end;
    if agg.Adaptive.total_refits > agg.Adaptive.total_drift_detected then begin
      Printf.printf "  refits %d > drift_detected %d\n"
        agg.Adaptive.total_refits agg.Adaptive.total_drift_detected;
      incr failures
    end;
    (* the replicate determinism contract, re-asserted under parallelism *)
    let par = adaptive_opcheck_replicate 4 in
    if
      not
        (Engine.equal_stats agg.Adaptive.engine_aggregate
           par.Adaptive.engine_aggregate
        && agg.Adaptive.total_replans = par.Adaptive.total_replans
        && agg.Adaptive.total_refits = par.Adaptive.total_refits
        && agg.Adaptive.total_drift_detected
           = par.Adaptive.total_drift_detected
        && agg.Adaptive.total_replans_on_drift
           = par.Adaptive.total_replans_on_drift)
    then begin
      Printf.printf "  jobs=4 aggregate differs from jobs=1\n";
      incr failures
    end;
    if !failures = 0 then
      Printf.printf
        "  ok: %d replans, %d refits, %d drift detections, %d drift replans \
         (jobs-invariant)\n"
        agg.Adaptive.total_replans agg.Adaptive.total_refits
        agg.Adaptive.total_drift_detected agg.Adaptive.total_replans_on_drift
  end;
  if !failures > 0 then begin
    Printf.printf "adaptive operation-count gate FAILED (%d mismatches)\n%!"
      !failures;
    exit 1
  end

(* --- query-server operation-count gate ------------------------------------ *)

(* The shared-marketplace server's counters (admissions, completions,
   fleet steps, rounds, posted questions, re-plans and the
   load-shift-triggered subset, deadline hits, plus the platform's
   shared-mode call and discard counters) are pure simulated
   bookkeeping — bit-deterministic for a fixed (fleet, seed). Pinning
   them catches a fleet-loop change that slips past the statistical
   tests: an admission that fires on the wrong step, a re-plan that
   stops detecting load shifts, a withdrawal that stops discarding.
   The jobs=1 vs jobs=4 replicate comparison re-asserts the
   determinism contract on every CI run. Regenerate with
   CROWDMAX_OPCHECK_PRINT=1 after an intentional change. *)
module Server = Crowdmax_server.Server
module Contention = Crowdmax_latency.Contention

let server_opcheck_runs = 4
let server_opcheck_seed = 113

let server_opcheck_expected =
  (* queries_admitted, queries_completed, fleet_steps, rounds_run,
     questions_posted, replans, contention_replans, deadline_hits,
     shared_calls, shared_discarded_answers *)
  (4, 4, 6, 10, 1109, 10, 5, 5, 5, 50)

let server_opcheck_specs () =
  [|
    Server.query_spec ~label:"a" ~elements:120 ~budget:960 ();
    Server.query_spec ~label:"b" ~elements:80 ~budget:200
      ~deadline:(Engine.Fixed (Model.eval model 60)) ();
    Server.query_spec ~label:"c" ~elements:100 ~budget:800 ~votes:2
      ~deadline:(Engine.Quantile 0.9) ~admit_step:1 ();
    Server.query_spec ~label:"d" ~elements:60 ~budget:150 ~admit_step:2 ();
  |]

let server_opcheck_contention () = Contention.create ~base:model ~beta:0.25

let server_opcheck_replicate jobs =
  Server.replicate ~jobs
    ~contention:(server_opcheck_contention ())
    ~platform:(Crowdmax_crowd.Platform.create ())
    ~latency:model ~selection:Selection.tournament ~runs:server_opcheck_runs
    ~seed:server_opcheck_seed (server_opcheck_specs ()) ()

let server_opcheck () =
  section
    (Printf.sprintf "query-server operation-count gate (%d runs, seed %d)"
       server_opcheck_runs server_opcheck_seed);
  let print_mode = Option.is_some (Sys.getenv_opt "CROWDMAX_OPCHECK_PRINT") in
  let failures = ref 0 in
  (* One metered run (the replicate seed's first run rng) pins the
     counters; the platform section's shared-mode instruments ride
     along. *)
  let metrics = Metrics.create () in
  let rng = Rng.create server_opcheck_seed in
  let specs = server_opcheck_specs () in
  let truths =
    Array.map (fun (s : Server.query_spec) -> G.random rng s.Server.elements)
      specs
  in
  let result =
    Server.run ~metrics
      ~contention:(server_opcheck_contention ())
      ~platform:(Crowdmax_crowd.Platform.create ())
      ~latency:model ~selection:Selection.tournament rng specs truths
  in
  let snap = Metrics.snapshot metrics in
  let count sect name =
    match Metrics.find snap ~section:sect name with
    | Some (Metrics.Count c) -> c
    | _ ->
        Printf.printf "  %s/%s missing from snapshot\n" sect name;
        incr failures;
        -1
  in
  let admitted = count "server" "queries_admitted" in
  let completed = count "server" "queries_completed" in
  let steps = count "server" "fleet_steps" in
  let rounds = count "server" "rounds_run" in
  let posted = count "server" "questions_posted" in
  let replans = count "server" "replans" in
  let c_replans = count "server" "contention_replans" in
  let ddl = count "server" "deadline_hits" in
  let shared_calls = count "platform" "shared_calls" in
  let discarded = count "platform" "shared_discarded_answers" in
  if print_mode then
    Printf.printf "  (%d, %d, %d, %d, %d, %d, %d, %d, %d, %d)\n%!" admitted
      completed steps rounds posted replans c_replans ddl shared_calls
      discarded
  else begin
    let ( exp_admitted, exp_completed, exp_steps, exp_rounds, exp_posted,
          exp_replans, exp_c_replans, exp_ddl, exp_shared, exp_discarded ) =
      server_opcheck_expected
    in
    let check name got expected =
      if got <> expected then begin
        Printf.printf "  server/%s = %d, pinned %d\n" name got expected;
        incr failures
      end
    in
    check "queries_admitted" admitted exp_admitted;
    check "queries_completed" completed exp_completed;
    check "fleet_steps" steps exp_steps;
    check "rounds_run" rounds exp_rounds;
    check "questions_posted" posted exp_posted;
    check "replans" replans exp_replans;
    check "contention_replans" c_replans exp_c_replans;
    check "deadline_hits" ddl exp_ddl;
    check "shared_calls" shared_calls exp_shared;
    check "shared_discarded_answers" discarded exp_discarded;
    (* structural cross-checks, independent of the pins *)
    if c_replans > replans then begin
      Printf.printf "  contention_replans %d > replans %d\n" c_replans replans;
      incr failures
    end;
    if result.Server.contention_replans <> c_replans then begin
      Printf.printf "  result.contention_replans %d <> metric %d\n"
        result.Server.contention_replans c_replans;
      incr failures
    end;
    (* the replicate determinism contract, re-asserted under parallelism *)
    let seq = server_opcheck_replicate 1 in
    let par = server_opcheck_replicate 4 in
    if not (Server.equal_aggregate seq par) then begin
      Printf.printf "  jobs=4 aggregate differs from jobs=1\n";
      incr failures
    end;
    if !failures = 0 then
      Printf.printf
        "  ok: %d queries over %d steps, %d rounds, %d posted, %d/%d \
         replans, %d deadline hits, %d discards (jobs-invariant)\n"
        admitted steps rounds posted c_replans replans ddl discarded
  end;
  if !failures > 0 then begin
    Printf.printf "query-server operation-count gate FAILED (%d mismatches)\n%!"
      !failures;
    exit 1
  end

(* --- deterministic counter history gate ---------------------------------- *)

(* The opcheck counters above are bit-deterministic, which makes them a
   cross-PR regression signal as well as an in-PR pin: [history-append]
   records them in BENCH_history.jsonl (one compact v2 row next to the
   throughput rows), and [history-check] recomputes them and compares
   against the most recent counters-bearing row — so a PR that shifts
   the event loop's or the planner's work profile fails `make ci` with
   the drifting counter named, even if its author forgot to regenerate
   the pinned opcheck tables. Because the counters are deterministic,
   any nonzero drift is a real behavior change; the 2% headroom only
   tolerates deliberate, reviewed bookkeeping tweaks without demanding
   a same-commit baseline row. Rows written by the v1 schema carry no
   counters and are skipped when picking the baseline.

   CROWDMAX_BENCH_BASELINE overrides the baseline choice:
     CROWDMAX_BENCH_BASELINE=skip          skip the gate (prints a note)
     CROWDMAX_BENCH_BASELINE=<commit-pfx>  compare against the newest
                                           counters row whose commit
                                           starts with that prefix *)

let history_counters () =
  let out = ref [] in
  let push key v = out := (key, v) :: !out in
  (* engine: the opcheck scenarios, platform-section counters *)
  List.iter
    (fun (n, _, _, _) ->
      let cfg = engine_sim_config n in
      let _agg, snap =
        Engine.replicate_with_metrics ~runs:engine_opcheck_runs
          ~seed:engine_opcheck_seed cfg ~elements:n
      in
      let get name =
        match Metrics.find snap ~section:"platform" name with
        | Some (Metrics.Count c) -> c
        | _ -> -1
      in
      List.iter
        (fun name -> push (Printf.sprintf "engine.n=%d.%s" n name) (get name))
        [ "events_drained"; "worker_arrivals"; "completions" ])
    engine_opcheck_expected;
  (* planner: the cold opcheck scenarios *)
  List.iter
    (fun (c0, b, _, _, _, _, _) ->
      let metrics = Metrics.create () in
      ignore
        (Tdp.solve ~metrics
           (Problem.create ~elements:c0 ~budget:b ~latency:model));
      let snap = Metrics.snapshot metrics in
      let get name =
        match Metrics.find snap ~section:"planner" name with
        | Some (Metrics.Count c) -> c
        | _ -> -1
      in
      List.iter
        (fun name ->
          push (Printf.sprintf "planner.cold.c0=%d.b=%d.%s" c0 b name) (get name))
        [ "states_visited"; "memo_hits"; "memo_misses"; "ub_pruned_branches" ])
    planner_opcheck_cold_expected;
  (* planner: the cached sweep, one cache and registry across all solves *)
  let metrics = Metrics.create () in
  let cache = Tdp.Cache.create () in
  List.iter
    (fun b ->
      ignore
        (Tdp.solve ~metrics ~cache
           (Problem.create ~elements:planner_opcheck_sweep_c0 ~budget:b
              ~latency:model)))
    planner_opcheck_sweep_budgets;
  let snap = Metrics.snapshot metrics in
  let get name =
    match Metrics.find snap ~section:"planner" name with
    | Some (Metrics.Count c) -> c
    | _ -> -1
  in
  List.iter
    (fun name ->
      push
        (Printf.sprintf "planner.sweep.c0=%d.%s" planner_opcheck_sweep_c0 name)
        (get name))
    [
      "states_visited"; "memo_hits"; "memo_misses"; "ub_pruned_branches";
      "plan_cache_hits"; "plan_cache_misses";
    ];
  (* adaptive: the closed-loop opcheck scenario's re-fit counters *)
  let agg = adaptive_opcheck_replicate 1 in
  List.iter
    (fun (name, v) -> push (Printf.sprintf "adaptive.%s" name) v)
    [
      ("replans", agg.Adaptive.total_replans);
      ("refits", agg.Adaptive.total_refits);
      ("drift_detected", agg.Adaptive.total_drift_detected);
      ("replans_on_drift", agg.Adaptive.total_replans_on_drift);
    ];
  (* server: the shared-marketplace opcheck scenario's fleet counters *)
  let metrics = Metrics.create () in
  let rng = Rng.create server_opcheck_seed in
  let specs = server_opcheck_specs () in
  let truths =
    Array.map (fun (s : Server.query_spec) -> G.random rng s.Server.elements)
      specs
  in
  ignore
    (Server.run ~metrics
       ~contention:(server_opcheck_contention ())
       ~platform:(Crowdmax_crowd.Platform.create ())
       ~latency:model ~selection:Selection.tournament rng specs truths);
  let snap = Metrics.snapshot metrics in
  let get sect name =
    match Metrics.find snap ~section:sect name with
    | Some (Metrics.Count c) -> c
    | _ -> -1
  in
  List.iter
    (fun name -> push (Printf.sprintf "server.%s" name) (get "server" name))
    [
      "queries_admitted"; "queries_completed"; "fleet_steps"; "rounds_run";
      "questions_posted"; "replans"; "contention_replans"; "deadline_hits";
    ];
  List.iter
    (fun name -> push (Printf.sprintf "server.%s" name) (get "platform" name))
    [ "shared_calls"; "shared_discarded_answers" ];
  List.rev !out

let history_append () =
  section "bench history: record deterministic counter row";
  let counters = history_counters () in
  let module J = Crowdmax_util.Json in
  let commit = git_commit () in
  append_bench_history
    (J.Obj
       [
         ("schema", J.String "crowdmax-bench-history/v2");
         ("commit", J.String commit);
         ("unix_time", J.Float (Unix.time ()));
         ("build_profile", J.String Build_profile.value);
         ("counters", J.Obj (List.map (fun (k, v) -> (k, J.int v)) counters));
       ]);
  Printf.printf "appended %d counters for commit %s to %s\n%!"
    (List.length counters) commit bench_history_file

(* Newest history row that carries counters (and, when the baseline
   override names a commit prefix, whose commit matches it). Malformed
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
    let prefix_ok commit =
      match Sys.getenv_opt "CROWDMAX_BENCH_BASELINE" with
      | None -> true
      | Some p ->
          String.length commit >= String.length p
          && String.equal (String.sub commit 0 (String.length p)) p
    in
    (* [rows] is newest-first *)
    List.find_map
      (fun row ->
        match counters_of row with
        | Some cs when prefix_ok (commit_of row) -> Some (commit_of row, cs)
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
                "bench: no counters-bearing row in %s matches commit prefix %S\n"
                bench_history_file prefix;
              exit 1
          | None ->
              Printf.printf
                "  no counters-bearing row in %s yet; run `main.exe \
                 history-append` to record one\n"
                bench_history_file)
      | Some (commit, old) ->
          let fresh = history_counters () in
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
        (Tdp.solve_bottom_up
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
  Test.make ~name (Staged.stage (fun () -> ignore (Scoring.scores_array dag)))

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

let engine_test name c0 b sel =
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  let cfg =
    Engine.config ~allocation:sol.Tdp.allocation ~selection:sel
      ~latency_model:model ()
  in
  Test.make ~name (Staged.stage (fun () ->
      let rng = Rng.create 17 in
      let truth = G.random rng c0 in
      ignore (Engine.run rng cfg truth)))

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
      Test.make_grouped ~name:"engine (full MAX run)"
        [
          engine_test "tournament c0=200 b=1200" 200 1200 Selection.tournament;
          engine_test "ct25 c0=200 b=1200" 200 1200 Selection.ct25;
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
  Crowdmax_util.Table.print table

(* --- entry point --------------------------------------------------------- *)

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s: %.2f s wall, jobs=%d]\n%!" name
    (Unix.gettimeofday () -. t0)
    !jobs

let () =
  (* Strip --jobs/-j (argv overrides CROWDMAX_JOBS); the rest are
     benchmark names. *)
  let rec strip_jobs acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
        jobs := parse_jobs ~source:"--jobs" v;
        strip_jobs acc rest
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "bench: --jobs requires an argument\n";
        exit 2
    | a :: rest when String.length a > 7 && String.equal (String.sub a 0 7) "--jobs=" ->
        jobs :=
          parse_jobs ~source:"--jobs"
            (String.sub a 7 (String.length a - 7));
        strip_jobs acc rest
    | a :: rest -> strip_jobs (a :: acc) rest
  in
  let args = strip_jobs [] (List.tl (Array.to_list Sys.argv)) in
  let known =
    [
      ("fig11a", fig11a); ("fig11b", fig11b); ("fig12", fig12);
      ("fig13a", fig13a); ("fig13b", fig13b); ("fig14a", fig14a);
      ("fig14b", fig14b); ("fig15", fig15); ("findings", findings);
      ("figures", figures); ("ablations", ablations); ("micro", micro);
      ("engine", engine_bench);
      ("engine-opcheck", engine_opcheck);
      ("planner-opcheck", planner_opcheck);
      ("adaptive-opcheck", adaptive_opcheck);
      ("server-opcheck", server_opcheck);
      ("history-append", history_append);
      ("history-check", history_check);
    ]
  in
  match args with
  | [] ->
      timed "figures" figures;
      timed "ablations" ablations;
      timed "micro" micro;
      timed "engine" engine_bench
  | _ ->
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
