(* crowdmax: command-line front end.

   Subcommands:
     allocate    - print the allocation each algorithm computes
     run         - simulate one MAX computation end to end
     topk        - top-k by successive MAX passes with answer reuse
     frontier    - the cost-latency Pareto frontier of a budget sweep
     serve       - a fleet of concurrent MAX queries on one shared marketplace
     experiment  - regenerate a figure (fig11a .. fig15), the Sec. 6.8
                   findings, the robustness sweep or the ablation tables
     metrics-check - validate a `run --metrics` JSON document *)

open Cmdliner
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Heuristics = Crowdmax_core.Heuristics
module Selection = Crowdmax_selection.Selection
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module Serialize = Crowdmax_runtime.Serialize
module Metrics = Crowdmax_obs.Metrics
module X = Crowdmax_experiments

(* --- shared arguments -------------------------------------------------- *)

let elements_arg =
  Arg.(
    value & opt int 500
    & info [ "n"; "elements" ] ~docv:"N" ~doc:"Collection size c0.")

let budget_arg =
  Arg.(
    value & opt int 4000
    & info [ "b"; "budget" ] ~docv:"B" ~doc:"Question budget b.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let runs_arg =
  Arg.(
    value & opt int 20
    & info [ "runs" ] ~docv:"RUNS" ~doc:"Replicated runs to average over.")

let jobs_arg =
  let env =
    Cmd.Env.info "CROWDMAX_JOBS"
      ~doc:"Default for $(b,--jobs): worker domains for replicated runs."
  in
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~env ~docv:"JOBS"
        ~doc:
          "Worker domains to fan replicated runs across (0 = all cores). \
           Results are bit-identical for every value; only wall-clock \
           changes.")

(* 0 means "use every core the runtime recommends". *)
let resolve_jobs jobs =
  if jobs < 0 then (
    Printf.eprintf "crowdmax: --jobs must be >= 0 (got %d)\n" jobs;
    exit 2)
  else if jobs > 128 then (
    Printf.eprintf "crowdmax: --jobs capped at 128 (got %d)\n" jobs;
    exit 2)
  else if jobs = 0 then Crowdmax_util.Parallel.recommended_jobs ()
  else jobs

let delta_arg =
  Arg.(
    value & opt float 239.0
    & info [ "delta" ] ~docv:"D" ~doc:"Latency overhead per round (seconds).")

let alpha_arg =
  Arg.(
    value & opt float 0.06
    & info [ "alpha" ] ~docv:"A" ~doc:"Latency per question (seconds).")

let p_arg =
  Arg.(
    value & opt float 1.0
    & info [ "p" ] ~docv:"P" ~doc:"Latency exponent: L = delta + alpha*q^P.")

let model_of delta alpha p =
  if Float.equal p 1.0 then Model.linear ~delta ~alpha
  else Model.power ~delta ~alpha ~p

let selection_arg =
  let all = List.map (fun s -> (s.Selection.name, s)) Selection.all in
  Arg.(
    value
    & opt (enum all) Selection.tournament
    & info [ "selection" ] ~docv:"SEL"
        ~doc:
          (Printf.sprintf "Question selection algorithm: %s."
             (String.concat ", " (List.map fst all))))

(* Deadline policy syntax: "wait" (default), "qP" for Quantile P in
   (0, 1], or a positive float for Fixed seconds. *)
let deadline_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "wait" | "wait-all" -> Ok Engine.Wait_all
    | low when String.length low > 1 && low.[0] = 'q' -> (
        match float_of_string_opt (String.sub low 1 (String.length low - 1)) with
        | Some p when p > 0.0 && p <= 1.0 -> Ok (Engine.Quantile p)
        | _ -> Error (`Msg (Printf.sprintf "quantile out of (0, 1]: %s" s)))
    | low -> (
        match float_of_string_opt low with
        | Some d when d > 0.0 -> Ok (Engine.Fixed d)
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "bad deadline %S: expected 'wait', 'qP' (quantile), or \
                    positive seconds"
                   s)))
  in
  let print ppf = function
    | Engine.Wait_all -> Format.pp_print_string ppf "wait"
    | Engine.Fixed d -> Format.fprintf ppf "%g" d
    | Engine.Quantile p -> Format.fprintf ppf "q%g" p
  in
  Arg.conv (parse, print)

let deadline_arg =
  Arg.(
    value & opt deadline_conv Engine.Wait_all
    & info [ "deadline" ] ~docv:"POLICY"
        ~doc:
          "Per-round answer-collection cutoff: $(b,wait) (block for every \
           raw answer; default), $(b,qP) (cut at the latency model's \
           predicted P-quantile completion, e.g. q0.95), or positive \
           seconds for a fixed cutoff. Needs $(b,--simulated).")

(* Straggler policy syntax: "drop" (default), "carry", or "reissue:N". *)
let straggler_conv =
  let parse s =
    let low = String.lowercase_ascii s in
    let reissue = "reissue:" in
    if String.equal low "drop" then Ok Engine.Drop
    else if String.equal low "carry" || String.equal low "carry-forward" then
      Ok Engine.Carry_forward
    else if String.starts_with ~prefix:reissue low then (
      let n = String.sub low (String.length reissue)
                (String.length low - String.length reissue) in
      match int_of_string_opt n with
      | Some n when n >= 0 -> Ok (Engine.Reissue n)
      | _ -> Error (`Msg (Printf.sprintf "bad reissue count in %S" s)))
    else
      Error
        (`Msg
          (Printf.sprintf
             "bad straggler policy %S: expected drop, carry, or reissue:N" s))
  in
  let print ppf = function
    | Engine.Drop -> Format.pp_print_string ppf "drop"
    | Engine.Carry_forward -> Format.pp_print_string ppf "carry"
    | Engine.Reissue n -> Format.fprintf ppf "reissue:%d" n
  in
  Arg.conv (parse, print)

let straggler_arg =
  Arg.(
    value & opt straggler_conv Engine.Drop
    & info [ "straggler" ] ~docv:"POLICY"
        ~doc:
          "What happens to questions with zero votes when a deadline cuts a \
           round off: $(b,drop) (default), $(b,carry) (repost in later \
           rounds while both elements survive), or $(b,reissue:N) (repost \
           at most N times).")

(* Re-fit policy syntax: "off" (default), "every:K", or "drift:T". *)
let refit_conv =
  let parse s =
    let low = String.lowercase_ascii s in
    let every = "every:" and drift = "drift:" in
    let suffix prefix =
      String.sub low (String.length prefix)
        (String.length low - String.length prefix)
    in
    if String.equal low "off" then Ok Adaptive.Off
    else if String.starts_with ~prefix:every low then (
      match int_of_string_opt (suffix every) with
      | Some k when k >= 1 -> Ok (Adaptive.Every_k_rounds k)
      | _ -> Error (`Msg (Printf.sprintf "bad re-fit period in %S (need K >= 1)" s)))
    else if String.starts_with ~prefix:drift low then (
      match float_of_string_opt (suffix drift) with
      | Some t when t > 0.0 && Float.is_finite t -> Ok (Adaptive.On_drift t)
      | _ -> Error (`Msg (Printf.sprintf "bad drift threshold in %S (need T > 0)" s)))
    else
      Error
        (`Msg
          (Printf.sprintf
             "bad re-fit policy %S: expected off, every:K, or drift:T" s))
  in
  let print ppf = function
    | Adaptive.Off -> Format.pp_print_string ppf "off"
    | Adaptive.Every_k_rounds k -> Format.fprintf ppf "every:%d" k
    | Adaptive.On_drift t -> Format.fprintf ppf "drift:%g" t
  in
  Arg.conv (parse, print)

let refit_arg =
  Arg.(
    value & opt refit_conv Adaptive.Off
    & info [ "refit" ] ~docv:"POLICY"
        ~doc:
          "Close the estimation loop (with $(b,--adaptive)): $(b,off) \
           (default; plan open-loop with the configured model), \
           $(b,every:K) (re-fit L(q) on the recent observation window \
           every K rounds), or $(b,drift:T) (re-fit when the model's \
           relative residual RMS on the window exceeds T, e.g. \
           drift:0.25).")

(* --- allocate ----------------------------------------------------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let sweep_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "sweep" ] ~docv:"B1,B2,..."
        ~doc:
          "Solve tDP once per budget in the comma-separated list against a \
           single shared plan cache (the planner tables are built once and \
           later solves only settle DP states earlier ones haven't) and \
           tabulate rounds, predicted latency, questions used and the \
           incremental states per solve. Replaces the single-budget \
           report; $(b,--budget) is ignored.")

(* The budget-sweep mode: one shared plan cache across all solves. *)
let allocate_sweep ~elements ~model ~budgets ~json =
  let cache = Crowdmax_core.Tdp.Cache.create () in
  let solve_at budget =
    let problem = Problem.create ~elements ~budget ~latency:model in
    (budget, Tdp.solve ~cache problem)
  in
  let rows = List.map solve_at budgets in
  if json then begin
    let module J = Crowdmax_util.Json in
    let doc =
      J.Obj
        [
          ("elements", J.int elements);
          ( "sweep",
            J.List
              (List.map
                 (fun (budget, sol) ->
                   J.Obj
                     [
                       ("budget", J.int budget);
                       ( "rounds",
                         J.List
                           (List.map J.int
                              (Allocation.round_budgets sol.Tdp.allocation)) );
                       ("latency_seconds", J.Float sol.Tdp.latency);
                       ("questions_used", J.int sol.Tdp.questions_used);
                       ("new_states", J.int sol.Tdp.states_visited);
                     ])
                 rows) );
          ( "plan_cache",
            J.Obj
              [
                ("hits", J.int (Tdp.Cache.hits cache));
                ("misses", J.int (Tdp.Cache.misses cache));
                ("states_settled", J.int (Tdp.Cache.states_settled cache));
              ] );
        ]
    in
    print_endline (J.to_string ~pretty:true doc)
  end
  else begin
    let table =
      Crowdmax_util.Table.create
        ~title:(Printf.sprintf "tDP budget sweep, c0 = %d (shared plan cache)" elements)
        [ ("budget", Crowdmax_util.Table.Right);
          ("rounds", Crowdmax_util.Table.Right);
          ("latency (s)", Crowdmax_util.Table.Right);
          ("questions used", Crowdmax_util.Table.Right);
          ("new DP states", Crowdmax_util.Table.Right) ]
    in
    List.iter
      (fun (budget, sol) ->
        Crowdmax_util.Table.add_row table
          [
            string_of_int budget;
            string_of_int (Allocation.rounds sol.Tdp.allocation);
            Printf.sprintf "%.1f" sol.Tdp.latency;
            string_of_int sol.Tdp.questions_used;
            string_of_int sol.Tdp.states_visited;
          ])
      rows;
    Crowdmax_util.Table.print table;
    Printf.printf
      "plan cache: %d table reuse(s), %d build(s), %d states settled\n"
      (Tdp.Cache.hits cache) (Tdp.Cache.misses cache)
      (Tdp.Cache.states_settled cache)
  end

let allocate_cmd =
  let run elements budget delta alpha p sweep json =
    let model = model_of delta alpha p in
    match sweep with
    | Some (_ :: _ as budgets) -> allocate_sweep ~elements ~model ~budgets ~json
    | Some [] | None ->
    let problem = Problem.create ~elements ~budget ~latency:model in
    let sol = Tdp.solve problem in
    let heuristic_rows =
      List.map
        (fun Heuristics.{ name; allocate } ->
          let alloc = allocate ~elements ~budget in
          (name, alloc, Allocation.predicted_latency alloc model))
        Heuristics.all
    in
    if json then begin
      let module J = Crowdmax_util.Json in
      let alloc_json a = J.List (List.map J.int (Allocation.round_budgets a)) in
      let doc =
        J.Obj
          [
            ("elements", J.int elements);
            ("budget", J.int budget);
            ( "tdp",
              J.Obj
                [
                  ("rounds", alloc_json sol.Tdp.allocation);
                  ("sequence", J.List (List.map J.int sol.Tdp.sequence));
                  ("latency_seconds", J.Float sol.Tdp.latency);
                  ("questions_used", J.int sol.Tdp.questions_used);
                ] );
            ( "heuristics",
              J.Obj
                (List.map
                   (fun (name, alloc, lat) ->
                     ( name,
                       J.Obj
                         [
                           ("rounds", alloc_json alloc);
                           ("latency_seconds", J.Float lat);
                         ] ))
                   heuristic_rows) );
          ]
      in
      print_endline (J.to_string ~pretty:true doc)
    end
    else begin
      Format.printf "%a@." Problem.pp problem;
      Format.printf
        "tDP: rounds %a  (sequence: %s; predicted latency %.1f s; uses %d of %d questions)@."
        Allocation.pp sol.Tdp.allocation
        (String.concat " -> " (List.map string_of_int sol.Tdp.sequence))
        sol.Tdp.latency sol.Tdp.questions_used budget;
      List.iter
        (fun (name, alloc, lat) ->
          Format.printf "%s: rounds %a  (predicted latency %.1f s)@." name
            Allocation.pp alloc lat)
        heuristic_rows
    end
  in
  let term =
    Term.(
      const run $ elements_arg $ budget_arg $ delta_arg $ alpha_arg $ p_arg
      $ sweep_arg $ json_flag)
  in
  Cmd.v
    (Cmd.info "allocate"
       ~doc:"Print the round allocation each budget-allocation algorithm computes.")
    term

(* --- topk ----------------------------------------------------------------- *)

let topk_cmd =
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"How many leaders to extract.")
  in
  let run elements budget delta alpha p seed k selection =
    let model = model_of delta alpha p in
    let problem = Problem.create ~elements ~budget ~latency:model in
    let rng = Crowdmax_util.Rng.create seed in
    let truth = Crowdmax_crowd.Ground_truth.random rng elements in
    let r = Crowdmax_topk.Topk.run rng ~k ~problem ~selection truth in
    Format.printf "top-%d of %d (best first): %s%s@." k elements
      (String.concat ", " (List.map string_of_int r.Crowdmax_topk.Topk.ranking))
      (if r.Crowdmax_topk.Topk.exact then "" else "  (inexact: budget ran dry)");
    Format.printf "%d questions, %d rounds, %.1f s@."
      r.Crowdmax_topk.Topk.questions_posted r.Crowdmax_topk.Topk.rounds_run
      r.Crowdmax_topk.Topk.total_latency;
    List.iter
      (fun pr ->
        Format.printf "  pass %d: #%d from %d candidates (%d q, %.0f s)@."
          (pr.Crowdmax_topk.Topk.pass_index + 1) pr.Crowdmax_topk.Topk.extracted
          pr.Crowdmax_topk.Topk.candidates pr.Crowdmax_topk.Topk.questions
          pr.Crowdmax_topk.Topk.latency)
      r.Crowdmax_topk.Topk.passes
  in
  let term =
    Term.(
      const run $ elements_arg $ budget_arg $ delta_arg $ alpha_arg $ p_arg
      $ seed_arg $ k_arg $ selection_arg)
  in
  Cmd.v
    (Cmd.info "topk"
       ~doc:"Find the top-k elements by successive MAX passes with answer reuse.")
    term

(* --- frontier --------------------------------------------------------------- *)

let frontier_cmd =
  let price_arg =
    Arg.(
      value & opt float 0.01
      & info [ "price" ] ~docv:"USD" ~doc:"Dollars per raw answer.")
  in
  let votes_arg =
    Arg.(
      value & opt int 1
      & info [ "votes" ] ~docv:"V" ~doc:"RWL repetitions per question.")
  in
  let run elements delta alpha p price votes json =
    let model = model_of delta alpha p in
    let pricing =
      Crowdmax_core.Cost.create_pricing ~per_question:price
        ~votes_per_question:votes
    in
    let budgets =
      let lo = elements - 1 in
      List.sort_uniq compare
        (lo
        :: List.concat_map
             (fun m -> [ m * elements ])
             [ 2; 3; 4; 6; 8; 12; 16; 24; 32 ])
    in
    let pts =
      Crowdmax_core.Cost.frontier ~pricing ~latency:model ~elements ~budgets ()
    in
    if json then begin
      let module J = Crowdmax_util.Json in
      print_endline
        (J.to_string ~pretty:true
           (J.List
              (List.map
                 (fun pt ->
                   J.Obj
                     [
                       ("budget", J.int pt.Crowdmax_core.Cost.budget);
                       ("dollars", J.Float pt.Crowdmax_core.Cost.dollars);
                       ("latency_seconds", J.Float pt.Crowdmax_core.Cost.latency);
                     ])
                 pts)))
    end
    else begin
      let table =
        Crowdmax_util.Table.create
          ~title:
            (Printf.sprintf "cost-latency frontier, c0 = %d ($%.3g/answer, %d votes)"
               elements price votes)
          [ ("budget", Crowdmax_util.Table.Right);
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
    end
  in
  let term =
    Term.(
      const run $ elements_arg $ delta_arg $ alpha_arg $ p_arg $ price_arg
      $ votes_arg $ json_flag)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Print the cost-latency Pareto frontier a budget sweep traces out.")
    term

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let simulated_arg =
    Arg.(
      value & flag
      & info [ "simulated" ]
          ~doc:
            "Answer through the discrete-event platform and the RWL (worker \
             errors, real batch latency) instead of the instant oracle.")
  in
  let votes_arg =
    Arg.(
      value & opt int 3
      & info [ "votes" ] ~docv:"V"
          ~doc:"RWL repetitions per question (with $(b,--simulated)).")
  in
  let worker_error_arg =
    Arg.(
      value & opt float 0.15
      & info [ "worker-error" ] ~docv:"E"
          ~doc:
            "Uniform worker error rate in [0, 0.5) (with $(b,--simulated)).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect planner/engine/platform metrics and write them (merged \
             over all runs) as a JSON document to $(docv). Collection is \
             deterministic: it cannot change the reported aggregates.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Re-plan after every round (solve tDP again for the surviving \
             candidates and remaining budget) instead of running one static \
             allocation. Required by $(b,--refit).")
  in
  let run elements budget delta alpha p seed runs jobs selection simulated
      votes worker_error deadline straggler adaptive refit metrics_out =
    let jobs = resolve_jobs jobs in
    let finite_deadline =
      match deadline with Engine.Wait_all -> false | _ -> true
    in
    if finite_deadline && not simulated then begin
      Printf.eprintf
        "crowdmax: --deadline needs --simulated (the oracle answers \
         instantly; there is nothing to cut off)\n";
      exit 2
    end;
    (* A simulated source carries the vote count into its validating
       constructor (Engine.config, Adaptive.run); the oracle never
       reads it, so a bad value is caught here instead of ignored. *)
    if votes < 1 && not simulated then begin
      Printf.eprintf "crowdmax: --votes must be >= 1 (got %d)\n" votes;
      exit 2
    end;
    (match refit with
    | Adaptive.Off -> ()
    | _ when not adaptive ->
        Printf.eprintf
          "crowdmax: --refit needs --adaptive (the static engine never \
           re-solves, so a re-fitted model would change nothing)\n";
        exit 2
    | _ when not simulated ->
        Printf.eprintf
          "crowdmax: --refit needs --simulated (oracle observations are the \
           model's own predictions; there is no drift to fit)\n";
        exit 2
    | _ -> ());
    if adaptive then begin
      (match straggler with
      | Engine.Drop -> ()
      | _ ->
          Printf.eprintf
            "crowdmax: --adaptive ignores --straggler (the next round's \
             re-plan and re-selection subsume carry-forward); use drop\n";
          exit 2);
      (match metrics_out with
      | None -> ()
      | Some _ ->
          Printf.eprintf "crowdmax: --metrics is not supported with --adaptive\n";
          exit 2)
    end;
    let model = model_of delta alpha p in
    let problem = Problem.create ~elements ~budget ~latency:model in
    let source =
      if simulated then
        Engine.Simulated
          {
            platform = Crowdmax_crowd.Platform.create ();
            rwl =
              {
                Crowdmax_crowd.Rwl.votes;
                error = Crowdmax_crowd.Worker.Uniform worker_error;
              };
          }
      else Engine.Oracle
    in
    let describe () =
      Format.printf "%a, selection = %s, source = %s@." Problem.pp problem
        selection.Selection.name
        (if simulated then
           Printf.sprintf "simulated (%d votes, error %g)" votes worker_error
         else "oracle")
    in
    let report (agg : Engine.aggregate) =
      Format.printf
        "mean latency %.1f s (stddev %.1f, p95 %.1f); singleton %.0f%%; correct %.0f%%; mean questions %.0f; mean rounds %.1f@."
        agg.Engine.mean_latency agg.Engine.stddev_latency agg.Engine.p95_latency
        (100.0 *. agg.Engine.singleton_rate)
        (100.0 *. agg.Engine.correct_rate)
        agg.Engine.mean_questions agg.Engine.mean_rounds;
      Format.printf "wall %.2f s over %d domain%s (%.1f runs/s)@."
        agg.Engine.timing.Engine.wall_seconds agg.Engine.timing.Engine.jobs
        (if agg.Engine.timing.Engine.jobs = 1 then "" else "s")
        agg.Engine.timing.Engine.runs_per_sec
    in
    if adaptive then begin
      let agg =
        Adaptive.replicate ~jobs ~source ~deadline ~refit ~runs ~seed ~problem
          ~selection ()
      in
      describe ();
      Format.printf "adaptive: re-plan every round, re-fit %s@."
        (match refit with
        | Adaptive.Off -> "off"
        | Adaptive.Every_k_rounds k -> Printf.sprintf "every %d rounds" k
        | Adaptive.On_drift t -> Printf.sprintf "on drift > %g" t);
      report agg.Adaptive.engine_aggregate;
      Format.printf "replans %d; refits %d; drift detected %d; replans on drift %d@."
        agg.Adaptive.total_replans agg.Adaptive.total_refits
        agg.Adaptive.total_drift_detected agg.Adaptive.total_replans_on_drift;
      exit 0
    end;
    let planner_metrics =
      if Option.is_some metrics_out then Metrics.create () else Metrics.disabled
    in
    let sol = Tdp.solve ~metrics:planner_metrics problem in
    let cfg =
      Engine.config ~source ~deadline ~straggler
        ~allocation:sol.Tdp.allocation ~selection ~latency_model:model ()
    in
    let agg =
      match metrics_out with
      | None -> Engine.replicate ~jobs ~runs ~seed cfg ~elements
      | Some file ->
          let agg, run_snapshot =
            Engine.replicate_with_metrics ~jobs ~runs ~seed cfg ~elements
          in
          let snapshot =
            Metrics.merge [ Metrics.snapshot planner_metrics; run_snapshot ]
          in
          let doc = Serialize.aggregate_to_json ~metrics:snapshot agg in
          let oc = open_out file in
          Fun.protect
            (fun () ->
              output_string oc (Crowdmax_util.Json.to_string ~pretty:true doc);
              output_char oc '\n')
            ~finally:(fun () -> close_out oc);
          agg
    in
    describe ();
    Format.printf "allocation: %a@." Allocation.pp sol.Tdp.allocation;
    if finite_deadline then
      Format.printf "deadline: %s, stragglers: %s@."
        (match deadline with
        | Engine.Wait_all -> "wait-all"
        | Engine.Fixed d -> Printf.sprintf "fixed %gs" d
        | Engine.Quantile q -> Printf.sprintf "quantile %g" q)
        (match straggler with
        | Engine.Drop -> "drop"
        | Engine.Carry_forward -> "carry forward"
        | Engine.Reissue n -> Printf.sprintf "reissue at most %d times" n);
    report agg;
    Option.iter
      (fun file -> Format.printf "metrics written to %s@." file)
      metrics_out
  in
  let term =
    Term.(
      const run $ elements_arg $ budget_arg $ delta_arg $ alpha_arg $ p_arg
      $ seed_arg $ runs_arg $ jobs_arg $ selection_arg $ simulated_arg
      $ votes_arg $ worker_error_arg $ deadline_arg $ straggler_arg
      $ adaptive_arg $ refit_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate MAX computations with the tDP allocation and report aggregates.")
    term

(* --- metrics-check -------------------------------------------------------- *)

(* CI smoke: does a --metrics dump parse back into a snapshot with the
   sections the observability layer promises? *)
let metrics_check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A JSON document written by $(b,run --metrics).")
  in
  let run file =
    let contents =
      let ic = open_in_bin file in
      Fun.protect
        (fun () -> really_input_string ic (in_channel_length ic))
        ~finally:(fun () -> close_in ic)
    in
    let doc =
      try Crowdmax_util.Json.of_string contents
      with Crowdmax_util.Json.Parse_error { position; message } ->
        Printf.eprintf "crowdmax: %s: JSON parse error at byte %d: %s\n" file
          position message;
        exit 2
    in
    match Serialize.aggregate_metrics_of_json doc with
    | Error e ->
        Printf.eprintf "crowdmax: %s: bad metrics document: %s\n" file e;
        exit 2
    | Ok [] ->
        Printf.eprintf "crowdmax: %s: no metrics field (was the run made with --metrics?)\n"
          file;
        exit 2
    | Ok snapshot ->
        let has section =
          List.exists (fun e -> String.equal e.Metrics.section section) snapshot
        in
        (* Planner and engine report on every run; the platform section
           only exists when an answer source actually drove the
           simulated platform (--simulated), so its absence is
           informational, not an error. *)
        let missing = List.filter (fun s -> not (has s)) [ "planner"; "engine" ] in
        if not (List.is_empty missing) then begin
          Printf.eprintf "crowdmax: %s: missing metric section(s): %s\n" file
            (String.concat ", " missing);
          exit 2
        end;
        Printf.printf "%s: ok (%d metrics across planner/engine%s)\n" file
          (List.length snapshot)
          (if has "platform" then "/platform" else "; no platform section — oracle run")
  in
  let term = Term.(const run $ file_arg) in
  Cmd.v
    (Cmd.info "metrics-check"
       ~doc:
         "Validate a metrics JSON document written by $(b,run --metrics): \
          parse it and require the planner and engine sections (platform \
          appears only for $(b,--simulated) runs).")
    term

(* --- serve --------------------------------------------------------------- *)

let serve_cmd =
  let module Server = Crowdmax_server.Server in
  let module Platform = Crowdmax_crowd.Platform in
  let queries_arg =
    Arg.(
      value & opt int 4
      & info [ "queries" ] ~docv:"N"
          ~doc:"Concurrent MAX queries to admit (1-32, staggered two per fleet step).")
  in
  let oblivious_arg =
    Arg.(
      value & flag
      & info [ "oblivious" ]
          ~doc:
            "Plan every query with the solo latency model (ignore fleet \
             contention) instead of the fitted L(q, o) contention model.")
  in
  let pick_arg =
    Arg.(
      value
      & opt (enum [ ("prop", Platform.Proportional); ("fifo", Platform.Fifo) ])
          Platform.Proportional
      & info [ "pick" ] ~docv:"POLICY"
          ~doc:
            "How marketplace workers pick between queries: $(b,prop) \
             (proportional to visible batch size; default) or $(b,fifo) \
             (lowest admission index first).")
  in
  (* A deterministic mixed workload: sizes, budgets, vote counts and
     all three deadline policies cycle; two admissions per fleet step. *)
  let workload base n =
    Array.init n (fun i ->
        let elements = 150 + (50 * (i mod 5)) in
        let budget = 5 * elements / 2 in
        let deadline =
          match i mod 3 with
          | 0 -> Engine.Wait_all
          | 1 -> Engine.Fixed (Model.eval base (elements / 2))
          | _ -> Engine.Quantile 0.9
        in
        let votes = if i mod 4 = 3 then 2 else 3 in
        Server.query_spec
          ~label:(Printf.sprintf "q%d" i)
          ~elements ~budget ~votes ~deadline ~admit_step:(i / 2) ())
  in
  let run queries runs seed jobs selection oblivious pick =
    let jobs = resolve_jobs jobs in
    if queries < 1 || queries > 32 then begin
      Printf.eprintf "crowdmax: --queries must be in 1..32 (got %d)\n" queries;
      exit 2
    end;
    let platform = Platform.create () in
    let base = X.Fig_server.calibrate_base platform in
    let contention =
      if oblivious then None
      else Some (X.Fig_server.calibrate_beta platform base)
    in
    let specs = workload base queries in
    let agg =
      Server.replicate ~jobs ?contention ~pick ~platform ~latency:base
        ~selection ~runs ~seed specs ()
    in
    Format.printf "%d quer%s on one shared marketplace, %d runs, %s planning@."
      queries
      (if queries = 1 then "y" else "ies")
      runs
      (if oblivious then "contention-oblivious" else "contention-aware");
    (match (base, contention) with
    | Model.Linear { delta; alpha }, Some c ->
        Format.printf
          "calibration: delta = %.1f, alpha = %.3f, beta = %.3f@." delta alpha
          (Crowdmax_latency.Contention.beta c)
    | Model.Linear { delta; alpha }, None ->
        Format.printf "calibration: delta = %.1f, alpha = %.3f@." delta alpha
    | _ -> ());
    let table =
      Crowdmax_util.Table.create
        [ ("query", Crowdmax_util.Table.Left);
          ("c0", Crowdmax_util.Table.Right);
          ("budget", Crowdmax_util.Table.Right);
          ("admit", Crowdmax_util.Table.Right);
          ("mean latency (s)", Crowdmax_util.Table.Right) ]
    in
    Array.iteri
      (fun i (s : Server.query_spec) ->
        Crowdmax_util.Table.add_row table
          [
            s.Server.label;
            string_of_int s.Server.elements;
            string_of_int s.Server.budget;
            string_of_int s.Server.admit_step;
            Printf.sprintf "%.1f" agg.Server.per_query_mean_latency.(i);
          ])
      specs;
    Crowdmax_util.Table.print table;
    Format.printf
      "fleet mean latency %.1f s; makespan %.1f s; fairness %.3f; correct %.0f%%@."
      agg.Server.mean_fleet_latency agg.Server.mean_makespan
      agg.Server.mean_fairness
      (100.0 *. agg.Server.correct_rate);
    Format.printf "contention replans %d; deadline hits %d@."
      agg.Server.total_contention_replans agg.Server.total_deadline_hits
  in
  let term =
    Term.(
      const run $ queries_arg $ runs_arg $ seed_arg $ jobs_arg $ selection_arg
      $ oblivious_arg $ pick_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a fleet of concurrent MAX queries off one shared worker \
          marketplace, re-planning each through tDP as fleet load shifts.")
    term

(* --- experiment ---------------------------------------------------------- *)

let experiment_cmd =
  let figures =
    [
      ("fig11a", `Fig11a); ("fig11b", `Fig11b); ("fig12", `Fig12);
      ("fig13a", `Fig13a); ("fig13b", `Fig13b); ("fig14a", `Fig14a);
      ("fig14b", `Fig14b); ("fig15", `Fig15); ("findings", `Findings);
      ("robustness", `Robustness); ("ablations", `Ablations);
      ("fig_deadline", `Fig_deadline); ("fig_adapt", `Fig_adapt);
      ("fig_server", `Fig_server);
    ]
  in
  let figure_arg =
    Arg.(
      required
      & pos 0 (some (enum figures)) None
      & info [] ~docv:"FIGURE"
          ~doc:
            (Printf.sprintf "Which figure or table to regenerate: %s."
               (String.concat ", " (List.map fst figures))))
  in
  (* Absent flags stay absent: each experiment then runs at its own
     module's committed defaults, the one place they are written down. *)
  let runs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "runs" ] ~docv:"RUNS"
          ~doc:
            "Replicated runs per cell (fig11a: runs per batch size). \
             Default: the experiment's own. fig14b and fig15 ignore it.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Random seed. Default: the experiment's own committed seed. \
             fig14b, fig15 and ablations ignore it.")
  in
  (* One blank line, then the figure: [show] runs the experiment before
     printing anything, so a rejected flag prints only its error. *)
  let show print result =
    print_newline ();
    print result
  in
  let run figure runs seed jobs =
    let jobs = resolve_jobs jobs in
    match figure with
    | `Fig11a ->
        show X.Fig11a.print (X.Fig11a.run ?runs_per_size:runs ?seed ())
    | `Fig11b -> show X.Fig11b.print (X.Fig11b.run ~jobs ?runs ?seed ())
    | `Fig12 -> show X.Fig12.print (X.Fig12.run ~jobs ?runs ?seed ())
    | `Fig13a ->
        show
          (fun f ->
            X.Fig13.print f;
            (* Sec. 6.4 also quotes the allocations behind the coincidences *)
            print_newline ();
            List.iter
              (fun (label, note) ->
                if
                  String.equal label "tDP+Tournament"
                  || String.equal label "uHF+CT25"
                then Printf.printf "  %s\n" note)
              f.X.Fig13.example_allocations)
          (X.Fig13.run_a ~jobs ?runs ?seed ())
    | `Fig13b -> show X.Fig13.print (X.Fig13.run_b ~jobs ?runs ?seed ())
    | `Fig14a -> show X.Fig14.print_a (X.Fig14.run_a ~jobs ?runs ?seed ())
    | `Fig14b -> show X.Fig14.print_b (X.Fig14.run_b ())
    | `Fig15 -> show X.Fig15.print (X.Fig15.run ())
    | `Findings -> show X.Findings.print (X.Findings.run ~jobs ?runs ?seed ())
    | `Robustness ->
        show X.Robustness.print (X.Robustness.run ~jobs ?runs ?seed ())
    | `Ablations -> X.Ablations.print ~jobs ?runs ()
    | `Fig_deadline ->
        show X.Fig_deadline.print (X.Fig_deadline.run ~jobs ?runs ?seed ())
    | `Fig_adapt ->
        show X.Fig_adapt.print (X.Fig_adapt.run ~jobs ?runs ?seed ())
    | `Fig_server ->
        show X.Fig_server.print (X.Fig_server.run ~jobs ?runs ?seed ())
  in
  let term = Term.(const run $ figure_arg $ runs_arg $ seed_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate a figure of the paper's evaluation section, the Sec. 6.8 \
          findings, or one of the beyond-the-paper tables.")
    term

let () =
  let info =
    Cmd.info "crowdmax" ~version:"1.0.0"
      ~doc:"Crowdsourced MAX with optimal-latency budget allocation (tDP, SIGMOD 2015)."
  in
  let cmd =
    Cmd.group info
      [ allocate_cmd; run_cmd; topk_cmd; frontier_cmd; serve_cmd;
        experiment_cmd; metrics_check_cmd ]
  in
  (* The library's validated constructors (Problem.create,
     Engine.replicate, Rwl, ...) reject bad input with
     [Invalid_argument "Module.fn: reason"]. Here at the command
     boundary that is a usage error, reported like the CLI's own flag
     checks (exit 2). A failed bounds check is a bug, not bad input, and
     stays an internal error like any other exception. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Invalid_argument msg
      when not (String.equal msg "index out of bounds") ->
        Printf.eprintf "crowdmax: %s\n%!" msg;
        2
    | exception e ->
        Printf.eprintf "crowdmax: internal error, uncaught exception:\n  %s\n%!"
          (Printexc.to_string e);
        Cmd.Exit.internal_error)
