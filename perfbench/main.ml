(* One benchmark run: set the workload up, drive a closed loop of
   back-to-back runs for the given seconds on one domain (repeating the
   set-up along the way, for a median set-up time), check every output,
   and print the result as the last line of stdout.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics of a separate traced loop. --smoke shrinks the input pool
   to a few inputs and accepts any build profile; the self-test uses it. *)

open Crowdmax_util
module Clock = Crowdmax_obs.Clock
module Metrics = Crowdmax_obs.Metrics
module W = Workloads

(* Distinct inputs per workload, sized so one pass over them takes a
   few seconds. The decision metrics cover exactly these, so they are a
   pure function of the seed; static-sim's correctness is the noisiest
   (a coin of p ~ 0.45 per query), so it gets the most. *)
let pool_size = function
  | "adaptive-oracle" -> 250
  | "static-sim" -> 2000
  | _ -> 200

let smoke_pool_size = 25

(* run_ms_p99 needs ten samples beyond it. *)
let min_timed_runs = 1000

(* Timing model. The machines this runs on are shared: other tenants
   slow everything 1.3-1.6x, in phases from one second to several
   minutes, and a window of tens of seconds often straddles several
   speeds. A median over a window then lands in whichever phase
   dominated it. Contention only ever slows work down, so the benchmark
   times each piece of work several times and keeps the repetitions
   made in the machine's fast state: those within [fast_share] of the
   fastest. The gap between the speeds is far wider than that, and
   ordinary jitter (cache, GC slices) far narrower. *)
let fast_share = 1.15

(* The pool is cut into this many fixed blocks of consecutive inputs
   (~0.3-0.8 s each). A block's repetitions are compared with each
   other only, since different blocks hold different inputs. *)
let blocks_per_pass = 20

(* Set-up is repeated every this many blocks, so its samples span the
   window like the runs' do. *)
let setup_every = 5

let block_range ~inputs b =
  let lo = b * inputs / blocks_per_pass in
  (lo, ((b + 1) * inputs / blocks_per_pass) - lo)

let fast_state key xs =
  let best = List.fold_left (fun m x -> Float.min m (key x)) Float.infinity xs in
  List.filter (fun x -> key x <= fast_share *. best) xs

let median xs = Stats.percentile (Array.of_list xs) 50.0

let reported = ref 0

let report_failure e =
  incr reported;
  if !reported <= 5 then
    match e with
    | W.Check_failed msg -> prerr_endline ("check failed: " ^ msg)
    | e -> prerr_endline ("run raised: " ^ Printexc.to_string e)

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM line in /proc/self/status"

let timed_setup setup ~seed ~inputs =
  let t0 = Clock.now () in
  let inst = setup ~seed ~inputs in
  (inst, Clock.now () -. t0)

type timed = {
  runs : int;
  failed : int;
  blocks : float array list array;
      (** per block, one array per repetition: each input's run wall seconds *)
  setups : float list;  (** set-up wall seconds *)
  facts : W.fact array array;  (** per input, from the first pass *)
}

(* Back-to-back runs cycling through the pool block by block, until
   [seconds] have passed, at least [min_runs] runs were made and the
   whole pool ran once. *)
let closed_loop setup ~seed ~inputs ~seconds ~min_runs =
  let inst, first_setup = timed_setup setup ~seed ~inputs in
  let facts = Array.make inputs [||] in
  let blocks = Array.make blocks_per_pass [] and setups = ref [ first_setup ] in
  let runs = ref 0 and failed = ref 0 and b = ref 0 in
  let start = Clock.now () in
  while !runs < max inputs min_runs || Clock.now () -. start < seconds do
    if !b mod setup_every = 0 && !runs > 0 then
      setups := snd (timed_setup setup ~seed ~inputs) :: !setups;
    let lo, len = block_range ~inputs !b in
    let times = Array.make len 0.0 in
    for k = 0 to len - 1 do
      let t0 = Clock.now () in
      (match inst.W.run (lo + k) with
      | f -> if !runs < inputs then facts.(lo + k) <- f
      | exception e ->
          incr failed;
          report_failure e);
      times.(k) <- Clock.now () -. t0;
      incr runs
    done;
    blocks.(!b) <- times :: blocks.(!b);
    b := (!b + 1) mod blocks_per_pass
  done;
  (inst, { runs = !runs; failed = !failed; blocks; setups = !setups; facts })

(* Throughput and per-run wall times from the fast-state repetitions
   of each block. *)
let fast_timings (inst : W.instance) (t : timed) =
  let sum = Array.fold_left ( +. ) 0.0 in
  let total = ref 0.0 and kept = ref [] in
  Array.iter
    (fun reps ->
      let fast = fast_state sum reps in
      total := !total +. median (List.map sum fast);
      kept := fast @ !kept)
    t.blocks;
  (float_of_int (inst.inputs * inst.queries_per_run) /. !total, Array.concat !kept)

(* The end-to-end metrics, and how many runs the latency percentiles
   cover. *)
let end_to_end inst (t : timed) =
  let all = Array.concat (Array.to_list t.facts) in
  let n = float_of_int (Array.length all) in
  let latencies = Array.map (fun f -> f.W.latency) all in
  let count p = Array.fold_left (fun k f -> if p f then k + 1 else k) 0 all in
  let queries_per_s, run_seconds = fast_timings inst t in
  let ms p = 1000.0 *. Stats.percentile run_seconds p in
  [
    ("queries_per_s", "1/s", queries_per_s);
    ("run_ms_p50", "ms", ms 50.0);
    ("run_ms_p99", "ms", ms 99.0);
    ("setup_s", "s", median (fast_state Fun.id t.setups));
    ("peak_rss_mb", "MB", peak_rss_mb ());
    ("ok_frac", "frac", float_of_int (t.runs - t.failed) /. float_of_int t.runs);
    ("sim_latency_mean_s", "s", Stats.mean latencies);
    ("sim_latency_p95_s", "s", Stats.percentile latencies 95.0);
    ( "questions_mean",
      "count",
      float_of_int (Array.fold_left (fun k f -> k + f.W.questions) 0 all) /. n );
    ("correct_rate", "frac", float_of_int (count (fun f -> f.W.correct)) /. n);
  ],
  Array.length run_seconds

type traced = {
  tracer : W.tracer;
  traced_runs : int;
  traced_failed : int;
  traced_wall : float;  (** traced iterations, verification excluded *)
  in_run_seconds : float;  (** inside the traced runs, layers included *)
  untraced_wall : float;  (** the verifying library reruns of the same inputs *)
  minor_words : float;
  major_collections : int;
}

(* Each traced run is followed at once by its verifying library rerun,
   which also times the same input untraced: interleaving the two keeps
   the overhead estimate clear of the machine's speed phases. *)
let traced_loop (inst : W.instance) ~seconds ~min_runs =
  let tr = W.tracer () in
  let runs = ref 0 and failed = ref 0 in
  let wall = ref 0.0 and in_run = ref 0.0 and untraced = ref 0.0 in
  let minor = ref 0.0 and major = ref 0 in
  let start = Clock.now () in
  while !runs < min_runs || Clock.now () -. start < seconds do
    let i = !runs mod inst.inputs in
    let t0 = Clock.now () in
    let g0 = Gc.quick_stat () in
    let r0 = Clock.now () in
    let result = try Ok (inst.traced tr i) with e -> Error e in
    let r1 = Clock.now () in
    let g1 = Gc.quick_stat () in
    in_run := !in_run +. (r1 -. r0);
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    wall := !wall +. (Clock.now () -. t0);
    (match result with
    | Ok (_, verify) -> (
        let v0 = Clock.now () in
        match verify () with
        | () -> untraced := !untraced +. (Clock.now () -. v0)
        | exception e ->
            incr failed;
            report_failure e)
    | Error e ->
        incr failed;
        report_failure e);
    incr runs
  done;
  {
    tracer = tr;
    traced_runs = !runs;
    traced_failed = !failed;
    traced_wall = !wall;
    in_run_seconds = !in_run;
    untraced_wall = !untraced;
    minor_words = !minor;
    major_collections = !major;
  }

let per_layer (inst : W.instance) (t : traced) =
  let tr = t.tracer in
  let fleets = float_of_int t.traced_runs in
  let nq = fleets *. float_of_int inst.queries_per_run in
  let per_query x = x /. nq and per_fleet x = x /. fleets in
  let ms s = per_query (1000.0 *. s) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let snap = Metrics.snapshot tr.W.metrics in
  let count section name =
    match Metrics.find snap ~section name with
    | Some (Metrics.Count n) -> float_of_int n
    | _ -> 0.0
  in
  let self = t.in_run_seconds -. W.layer_seconds tr in
  let self_of d = if inst.loop = d then self else 0.0 in
  let tdp_calls =
    match inst.loop with
    | W.Server_loop -> count "server" "replans"
    | W.Adaptive_loop | W.Engine_loop -> float_of_int tr.tdp.calls
  in
  [
    ("tdp.ms_per_query", "ms", ms tr.tdp.seconds);
    ("tdp.calls_per_query", "count", per_query tdp_calls);
    ("tdp.states_per_query", "count", per_query (float_of_int tr.tdp_states));
    ( "tdp.cache_hit_ratio",
      "ratio",
      ratio tr.cache_hits (tr.cache_hits + tr.cache_misses) );
    ("selection.ms_per_query", "ms", ms tr.selection.seconds);
    ("selection.pairs_per_call", "count", ratio tr.pairs tr.selection.calls);
    ("platform.ms_per_query", "ms", ms tr.platform.seconds);
    ( "platform.raw_questions_per_query",
      "count",
      per_query (float_of_int tr.raw_questions) );
    ( "platform.ns_per_raw_question",
      "ns",
      if tr.raw_questions = 0 then 0.0
      else 1e9 *. tr.platform.seconds /. float_of_int tr.raw_questions );
    ( "platform.events_drained_per_query",
      "count",
      per_query (count "platform" "events_drained") );
    ("rwl.ms_per_query", "ms", ms tr.rwl.seconds);
    ("answer_dag.ms_per_query", "ms", ms tr.answer_dag.seconds);
    ("adaptive.self_ms_per_query", "ms", ms (self_of W.Adaptive_loop));
    ("engine.self_ms_per_query", "ms", ms (self_of W.Engine_loop));
    ( "server.self_ms_per_fleet",
      "ms",
      per_fleet (1000.0 *. self_of W.Server_loop) );
    ("server.replans_per_fleet", "count", per_fleet (count "server" "replans"));
    ( "server.contention_replans_per_fleet",
      "count",
      per_fleet (count "server" "contention_replans") );
    ( "platform.shared_discarded_answers_per_fleet",
      "count",
      per_fleet (count "platform" "shared_discarded_answers") );
    ("gc.minor_words_per_query", "count", per_query t.minor_words);
    ( "gc.major_collections_per_1k_queries",
      "count",
      per_query (1000.0 *. float_of_int t.major_collections) );
    ("trace.coverage_pct", "%", 100.0 *. t.in_run_seconds /. t.traced_wall);
    ("trace.overhead_pct", "%", 100.0 *. ((t.traced_wall /. t.untraced_wall) -. 1.0));
  ]

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and smoke = ref false in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]"
  in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map fst W.all) );
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny input pool, any build profile");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline msg;
    exit 2
  in
  let setup =
    match List.assoc_opt !workload W.all with
    | Some s -> s
    | None -> die ("unknown workload " ^ !workload ^ "\n" ^ usage)
  in
  if !seed < 0 then die "--seed must be >= 0";
  if not (!seconds > 0.0) then die "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if (not !smoke) && not (String.equal Build_profile.value "release") then
    die
      ("refusing to time a " ^ Build_profile.value
     ^ "-profile build: build with --profile release");
  let inputs = if !smoke then smoke_pool_size else pool_size !workload in
  let attempted, failed, metrics, counts =
    if !trace = 0 then begin
      let min_runs = if !smoke then inputs else min_timed_runs in
      let inst, t = closed_loop setup ~seed:!seed ~inputs ~seconds:!seconds ~min_runs in
      let metrics, samples = end_to_end inst t in
      ( t.runs,
        t.failed,
        metrics,
        [
          ("runs", Json.int t.runs);
          ("run_ms_samples", Json.int samples);
          ("setup_repeats", Json.int (List.length t.setups));
        ] )
    end
    else begin
      let inst = setup ~seed:!seed ~inputs in
      let min_runs = if !smoke then inputs else 1 in
      let t = traced_loop inst ~seconds:!seconds ~min_runs in
      ( t.traced_runs,
        t.traced_failed,
        per_layer inst t,
        [ ("traced_runs", Json.int t.traced_runs) ] )
    end
  in
  print_json
    [
      ( "info",
        Json.Obj
          ([
            ("workload", Json.String !workload);
            ("seed", Json.int !seed);
            ("seconds", Json.Float !seconds);
            ("trace", Json.int !trace);
            ("build_profile", Json.String Build_profile.value);
            ("ocaml", Json.String Sys.ocaml_version);
            ("nproc", Json.int (Domain.recommended_domain_count ()));
            ("jobs", Json.int 1);
            ("distinct_inputs", Json.int inputs);
          ]
          @ counts) );
    ];
  print_json
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, value) ->
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
             metrics) );
    ];
  if failed > 0 then exit 1
