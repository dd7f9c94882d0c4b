(* Property-based tests (qcheck) for the core invariants:

   - Q-function identities and bounds (Defs. 1-2)
   - tDP optimality vs brute force, budget safety, sequence shape
   - Theorem 2 (maxRC = maxIND) on random graphs
   - Lemma 4 (E[R] formula) vs direct enumeration over orientations
   - tournament selection -> singleton termination with the true MAX
   - RWL conflict-freedom under adversarial error rates
   - scoring conservation on random answer DAGs *)

module Q = QCheck
module T = Crowdmax_tournament.Tournament
module U = Crowdmax_graph.Undirected
module MI = Crowdmax_graph.Max_ind
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module ERC = Crowdmax_graph.Expected_rc
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module S = Crowdmax_selection.Selection
module E = Crowdmax_runtime.Engine
module G = Crowdmax_crowd.Ground_truth
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module Ints = Crowdmax_util.Ints
module Rng = Crowdmax_util.Rng

let count = 100

(* --- generators --------------------------------------------------------- *)

let pair_c_cnext =
  Q.make
    ~print:(fun (c, c') -> Printf.sprintf "(c=%d, c'=%d)" c c')
    Q.Gen.(
      int_range 1 200 >>= fun c ->
      int_range 1 c >>= fun c' -> return (c, c'))

let instance =
  (* (c0, slack): budget = c0 - 1 + slack *)
  Q.make
    ~print:(fun (c0, s) -> Printf.sprintf "(c0=%d, slack=%d)" c0 s)
    Q.Gen.(
      int_range 2 40 >>= fun c0 ->
      int_range 0 300 >>= fun s -> return (c0, s))

let small_instance =
  Q.make
    ~print:(fun (c0, s) -> Printf.sprintf "(c0=%d, slack=%d)" c0 s)
    Q.Gen.(
      int_range 2 9 >>= fun c0 ->
      int_range 0 40 >>= fun s -> return (c0, s))

let random_graph_gen nmax density =
  Q.Gen.(
    int_range 2 nmax >>= fun n ->
    int_range 0 1000 >>= fun seed ->
    return
      (let rng = Rng.create (seed * 7919) in
       let g = U.create n in
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           if Rng.bernoulli rng density then U.add_edge g i j
         done
       done;
       g))

let graph_print g =
  Printf.sprintf "graph(n=%d, edges=%s)" (U.size g)
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) (U.edges g)))

let small_graph = Q.make ~print:graph_print (random_graph_gen 7 0.5)
let medium_graph = Q.make ~print:graph_print (random_graph_gen 20 0.3)

let model = Model.linear ~delta:100.0 ~alpha:1.0

(* --- properties --------------------------------------------------------- *)

let prop_q_function_bounds =
  Q.Test.make ~name:"Q(c,c') within [c-c', choose2 c] and consistent" ~count
    pair_c_cnext (fun (c, c') ->
      let q = T.questions c c' in
      (* every tournament eliminates its clique size - 1 elements *)
      q >= c - c' && q <= Ints.choose2 c)

let prop_q_decreasing =
  Q.Test.make ~name:"Q(c, .) weakly decreasing in group count" ~count
    pair_c_cnext (fun (c, c') ->
      c' >= c || T.questions c c' >= T.questions c (c' + 1))

let prop_sizes_partition =
  Q.Test.make ~name:"tournament sizes partition the candidates" ~count
    pair_c_cnext (fun (c, c') ->
      let sizes = T.sizes c c' in
      Ints.sum sizes = c
      && List.length sizes = c'
      && List.for_all (fun s -> s >= 1) sizes)

let prop_tdp_beats_brute_force =
  Q.Test.make ~name:"tDP matches brute-force optimum" ~count:60 small_instance
    (fun (c0, s) ->
      let p = Problem.create ~elements:c0 ~budget:(c0 - 1 + s) ~latency:model in
      let dp = Tdp.solve p and bf = Tdp_reference.brute_force p in
      Float.abs (dp.Tdp.latency -. bf.Tdp.latency) < 1e-9)

let prop_tdp_within_budget =
  Q.Test.make ~name:"tDP stays within budget and ends at 1" ~count instance
    (fun (c0, s) ->
      let b = c0 - 1 + s in
      let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
      sol.Tdp.questions_used <= b
      && List.nth sol.Tdp.sequence (List.length sol.Tdp.sequence - 1) = 1
      && List.hd sol.Tdp.sequence = c0)

let prop_tdp_beats_heuristics =
  Q.Test.make ~name:"tDP latency <= every heuristic's predicted latency"
    ~count instance (fun (c0, s) ->
      let b = c0 - 1 + s in
      let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
      List.for_all
        (fun Crowdmax_core.Heuristics.{ allocate; _ } ->
          let a = allocate ~elements:c0 ~budget:b in
          (* heuristic vectors are question counts, not tournament
             sequences; their predicted latency assumes all rounds run,
             which is what the paper plots *)
          Allocation.predicted_latency a model >= sol.Tdp.latency -. 1e-9)
        Crowdmax_core.Heuristics.all)

let prop_theorem3_edge_bound =
  (* Theorem 3 (via Berge/Turán): any graph on c nodes whose maximum
     independent set has size k needs at least Q(c, k) edges - the
     tournament graph is edge-minimal for its worst case *)
  Q.Test.make ~name:"Theorem 3: |E| >= Q(|V|, |maxIND|)" ~count:60 medium_graph
    (fun g ->
      let k = List.length (MI.exact g) in
      U.edge_count g >= T.questions (U.size g) k)

let prop_adaptive_matches_static_on_tournaments =
  (* With pure tournament rounds (which never over-eliminate when the
     plan's budgets are hit exactly), re-planning after each round must
     reproduce the static tDP latency: the DP's suffixes are optimal. *)
  Q.Test.make ~name:"adaptive tDP = static tDP under exact tournaments"
    ~count:40 instance (fun (c0, s) ->
      let b = c0 - 1 + s in
      let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
      let static = Tdp.solve problem in
      let rng = Rng.create ((c0 * 31) + s) in
      let truth = G.random rng c0 in
      let r =
        Crowdmax_runtime.Adaptive.run rng ~problem ~selection:S.tournament truth
      in
      r.Crowdmax_runtime.Adaptive.engine_result.E.correct
      && r.Crowdmax_runtime.Adaptive.engine_result.E.total_latency
         <= static.Tdp.latency +. 1e-6)

let prop_maxrc_equals_maxind =
  Q.Test.make ~name:"Theorem 2: |maxRC| = |maxIND|" ~count:40 small_graph
    (fun g ->
      List.length (MI.exact g) = List.length (MI.max_rc_brute g))

let prop_greedy_below_exact =
  Q.Test.make ~name:"greedy IND set never beats exact" ~count medium_graph
    (fun g -> List.length (MI.greedy g) <= List.length (MI.exact g))

let prop_expected_rc_formula =
  (* Lemma 4 over exhaustive orientations: average |RC| over all n!
     ground truths equals sum 1/(d_v + 1) *)
  Q.Test.make ~name:"Lemma 4: E[R] = sum 1/(d_v+1)" ~count:30 small_graph
    (fun g ->
      let n = U.size g in
      let total = ref 0 in
      let perms = ref 0 in
      let a = Array.init n (fun i -> i) in
      let rec permute k =
        if k = 1 then begin
          let rank = Array.make n 0 in
          Array.iteri (fun pos v -> rank.(v) <- pos) a;
          total := !total + List.length (U.remaining_after g rank);
          incr perms
        end
        else
          for i = 0 to k - 1 do
            permute (k - 1);
            let j = if k mod 2 = 0 then i else 0 in
            let tmp = a.(j) in
            a.(j) <- a.(k - 1);
            a.(k - 1) <- tmp
          done
      in
      permute n;
      let avg = float_of_int !total /. float_of_int !perms in
      Float.abs (avg -. ERC.closed_form g) < 1e-9)

let prop_tournament_minimizes_expected_rc =
  (* Theorem 5: among equal-edge-count graphs, the tournament graph's
     E[R] attains the near-regular lower bound *)
  Q.Test.make ~name:"Theorem 5: tournament graph attains E[R] bound" ~count:50
    pair_c_cnext (fun (c, c') ->
      let rng = Rng.create (c * 131 + c') in
      let a = T.assign rng (Array.init c (fun i -> i)) c' in
      let g = T.to_undirected c a in
      ERC.closed_form g
      <= ERC.lower_bound ~nodes:c ~edges:(U.edge_count g) +. 1e-9)

let prop_scoring_conserves_energy =
  Q.Test.make ~name:"Algorithm 2 conserves energy onto candidates" ~count
    (Q.make ~print:(fun s -> Printf.sprintf "seed=%d" s) Q.Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 30 in
      let truth = Rng.permutation rng n in
      let dag = Dag.create n in
      for _ = 1 to Rng.int rng (3 * n) do
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then begin
          let w, l = if truth.(a) > truth.(b) then (a, b) else (b, a) in
          Dag.add_answer dag ~winner:w ~loser:l
        end
      done;
      let s = Scoring.scores_array dag in
      let candidates = Dag.remaining_candidates dag in
      let total = Array.fold_left ( +. ) 0.0 s in
      let on_candidates =
        List.fold_left (fun acc c -> acc +. s.(c)) 0.0 candidates
      in
      Float.abs (total -. 1.0) < 1e-9 && Float.abs (on_candidates -. 1.0) < 1e-9)

let prop_tournament_selection_singleton =
  (* tDP + tournament formation always reaches the true MAX with
     singleton termination under error-free workers *)
  Q.Test.make ~name:"tDP+Tournament: singleton + correct (error-free)"
    ~count:60 instance (fun (c0, s) ->
      let b = c0 - 1 + s in
      let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
      let rng = Rng.create ((c0 * 7919) + s) in
      let truth = G.random rng c0 in
      let cfg =
        E.config ~allocation:sol.Tdp.allocation ~selection:S.tournament
          ~latency_model:model ()
      in
      let r = E.run rng cfg truth in
      r.E.singleton && r.E.correct)

let prop_heuristics_singleton_under_tournament =
  (* HE and HF schedule at least a halving round's worth of questions
     against the worst-case candidate count of every round, so under
     tournament selection they always reach a singleton. The uniform
     variants do NOT guarantee this at tight budgets (paper Sec. 6.8,
     finding 4) - for them we only require a correct result whenever a
     singleton was reached. *)
  Q.Test.make ~name:"heuristics+Tournament termination contract" ~count:40
    instance (fun (c0, s) ->
      let b = c0 - 1 + s in
      let rng = Rng.create ((c0 * 104729) + s) in
      let run allocate =
        let truth = G.random rng c0 in
        let cfg =
          E.config ~allocation:(allocate ~elements:c0 ~budget:b)
            ~selection:S.tournament ~latency_model:model ()
        in
        (E.run rng cfg truth, truth)
      in
      let guaranteed =
        List.for_all
          (fun allocate ->
            let r, _ = run allocate in
            r.E.singleton && r.E.correct)
          [ Crowdmax_core.Heuristics.he; Crowdmax_core.Heuristics.hf ]
      in
      let best_effort =
        List.for_all
          (fun allocate ->
            let r, truth = run allocate in
            (not r.E.singleton) || r.E.chosen = G.max_element truth)
          [ Crowdmax_core.Heuristics.uhe; Crowdmax_core.Heuristics.uhf ]
      in
      guaranteed && best_effort)

let prop_rwl_always_conflict_free =
  Q.Test.make ~name:"RWL output acyclic for any error rate" ~count:60
    (Q.make
       ~print:(fun (s, e) -> Printf.sprintf "seed=%d err=%.2f" s e)
       Q.Gen.(
         int_range 0 10000 >>= fun s ->
         float_range 0.0 1.0 >>= fun e -> return (s, e)))
    (fun (seed, err) ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 10 in
      let truth = G.random rng n in
      let questions = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.bernoulli rng 0.7 then questions := (i, j) :: !questions
        done
      done;
      let o =
        Rwl.resolve rng { Rwl.votes = 1; error = W.Uniform err } ~truth !questions
      in
      Rwl.is_conflict_free ~n o.Rwl.answers
      && List.length o.Rwl.answers = List.length !questions)

let prop_topk_prefix_consistency =
  (* exact top-k runs agree on prefixes: the first k1 entries of an
     exact top-k2 ranking (k2 > k1) equal the exact top-k1 ranking -
     both are the true order's head *)
  Q.Test.make ~name:"top-k prefix consistency" ~count:30
    (Q.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       Q.Gen.(
         int_range 0 10000 >>= fun s ->
         int_range 6 40 >>= fun n -> return (s, n)))
    (fun (seed, n) ->
      let budget = 10 * n in
      let problem = Problem.create ~elements:n ~budget ~latency:model in
      let truth = G.random (Rng.create seed) n in
      let run k =
        Crowdmax_topk.Topk.run (Rng.create (seed + k)) ~k ~problem
          ~selection:S.tournament truth
      in
      let r2 = run 2 and r5 = run 5 in
      (not (r2.Crowdmax_topk.Topk.exact && r5.Crowdmax_topk.Topk.exact))
      || (let rec prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && prefix xs ys
            | _ -> false
          in
          prefix r2.Crowdmax_topk.Topk.ranking r5.Crowdmax_topk.Topk.ranking))

let prop_cost_frontier_pareto =
  (* no frontier point dominates another *)
  Q.Test.make ~name:"cost frontier is Pareto-optimal" ~count:30
    (Q.make
       ~print:(fun n -> Printf.sprintf "c0=%d" n)
       Q.Gen.(int_range 5 80))
    (fun c0 ->
      let budgets = [ c0 - 1; 2 * c0; 4 * c0; 8 * c0; 16 * c0 ] in
      let pts =
        Crowdmax_core.Cost.frontier ~latency:model ~elements:c0 ~budgets ()
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a == b
              || not
                   (b.Crowdmax_core.Cost.dollars <= a.Crowdmax_core.Cost.dollars
                   && b.Crowdmax_core.Cost.latency < a.Crowdmax_core.Cost.latency
                   ))
            pts)
        pts)

let prop_rng_int_rejection_bound =
  (* Rejection sampling invariants of Rng.int: accept_max + 1 is a
     multiple of the bound (uniform residues), the rejected tail is
     strictly shorter than the bound, and draws stay in range. *)
  Q.Test.make ~name:"Rng.int rejection bound respected" ~count
    (Q.make
       ~print:(fun (s, b) -> Printf.sprintf "seed=%d bound=%d" s b)
       Q.Gen.(
         int_range 0 100000 >>= fun s ->
         int_range 1 1000000 >>= fun b -> return (s, b)))
    (fun (seed, bound) ->
      let am = Rng.accept_max bound in
      let b64 = Int64.of_int bound in
      Int64.rem (Int64.add am 1L) b64 = 0L
      && Int64.compare (Int64.sub Int64.max_int am) b64 < 0
      &&
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Rng.int rng bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_rng_split_streams_independent =
  (* The determinism contract of Engine.replicate leans on split streams
     being distinct: sibling splits from one master, and parent vs
     child, must not collide over a prefix of draws. *)
  Q.Test.make ~name:"Rng.split streams don't collide" ~count
    (Q.make
       ~print:(fun (s, k) -> Printf.sprintf "seed=%d splits=%d" s k)
       Q.Gen.(
         int_range 0 100000 >>= fun s ->
         int_range 2 16 >>= fun k -> return (s, k)))
    (fun (seed, k) ->
      let master = Rng.create seed in
      let children = Array.init k (fun _ -> Rng.split master) in
      let prefix rng = Array.init 8 (fun _ -> Rng.bits64 rng) in
      let streams = Array.map prefix children in
      let master_stream = prefix master in
      let distinct = Hashtbl.create 16 in
      Array.iter (fun s -> Hashtbl.replace distinct s ()) streams;
      Hashtbl.replace distinct master_stream ();
      Hashtbl.length distinct = k + 1)

let prop_selection_rounds_valid =
  Q.Test.make ~name:"every selector emits valid rounds" ~count:60
    (Q.make
       ~print:(fun (s, n, b) -> Printf.sprintf "seed=%d n=%d b=%d" s n b)
       Q.Gen.(
         int_range 0 10000 >>= fun s ->
         int_range 2 40 >>= fun n ->
         int_range 1 120 >>= fun b -> return (s, n, b)))
    (fun (seed, n, b) ->
      let rng = Rng.create seed in
      let input =
        {
          S.budget = b;
          candidates = Array.init n (fun i -> i);
          history = Dag.create n;
          round_index = 0;
          total_rounds = 2;
          carried = [];
        }
      in
      List.for_all
        (fun sel ->
          match S.validate_round input (sel.S.select rng input) with
          | Ok _ -> true
          | Error _ -> false)
        S.all)

(* --- flat planner vs reference solvers ------------------------------------ *)

let wide_instance =
  (* Slack up to 1000 against c0 <= 40 (choose2 40 = 780) spans all three
     budget regimes: binding (small slack), unconstrained (budget past
     the ub-table fast path), and clamped (budget > choose2 c0). *)
  Q.make
    ~print:(fun (c0, s) -> Printf.sprintf "(c0=%d, slack=%d)" c0 s)
    Q.Gen.(
      int_range 2 40 >>= fun c0 ->
      int_range 0 1000 >>= fun s -> return (c0, s))

let prop_flat_solver_equivalence =
  (* The flat-arena solver, the bottom-up table, and the boxed hashtbl
     reference all compute the same optimum; flat and hashtbl share
     float-for-float the same operations, so those two must agree
     bit-for-bit, sequence included. The round-count bound may only
     remove work: flat settles at most the hashtbl memo's states. *)
  Q.Test.make ~name:"flat solver = bottom-up = hashtbl reference" ~count:60
    wide_instance (fun (c0, s) ->
      let p = Problem.create ~elements:c0 ~budget:(c0 - 1 + s) ~latency:model in
      let flat = Tdp.solve p in
      let boxed = Tdp_reference.solve_hashtbl p in
      let bu = Tdp_reference.solve_bottom_up p in
      flat.Tdp.sequence = boxed.Tdp.sequence
      && Float.equal flat.Tdp.latency boxed.Tdp.latency
      && flat.Tdp.questions_used = boxed.Tdp.questions_used
      && flat.Tdp.states_visited <= boxed.Tdp.states_visited
      && Float.abs (flat.Tdp.latency -. bu.Tdp.latency) < 1e-9)

let prop_linear_latency_is_round_bound =
  (* For L(q) = delta + alpha q with delta, alpha >= 0, an R-round plan
     costs R delta + alpha Q, so the optimum is the best round count's
     min R delta + alpha Qmin_R(c0) over the R whose Qmin fits the
     budget. The DP's float sums must land within 1e-9 relative of it
     (exactly on it when both parameters are 0). *)
  let param hi = Q.Gen.(oneof [ return 0.0; float_range 0.0 hi ]) in
  Q.Test.make ~name:"linear tDP latency = round-count optimum" ~count:150
    (Q.make
       ~print:(fun (c0, s, d, a) ->
         Printf.sprintf "(c0=%d, slack=%d, delta=%g, alpha=%g)" c0 s d a)
       Q.Gen.(
         int_range 2 200 >>= fun c0 ->
         int_range 0 3000 >>= fun s ->
         param 500.0 >>= fun d ->
         param 3.0 >>= fun a -> return (c0, s, d, a)))
    (fun (c0, s, delta, alpha) ->
      let b = c0 - 1 + s in
      let p =
        Problem.create ~elements:c0 ~budget:b
          ~latency:(Model.linear ~delta ~alpha)
      in
      let q0 = min b (Ints.choose2 c0) in
      let best = ref infinity in
      for r = 1 to max 1 (Ints.log2_ceil c0) do
        let qm = Tdp.min_questions ~rounds:r c0 in
        if qm <= q0 then
          best :=
            Float.min !best
              ((float_of_int r *. delta) +. (alpha *. float_of_int qm))
      done;
      let got = (Tdp.solve p).Tdp.latency in
      Float.abs (got -. !best) <= 1e-9 *. !best)

let prop_cached_sweep_equals_fresh =
  (* Interleaved solves over a shuffled budget sweep against one shared
     plan cache reproduce the fresh solve at every point — whatever the
     arena has accumulated from earlier budgets is invisible in the
     answers. The final smaller-c0 solve exercises table reuse across
     instance sizes. *)
  Q.Test.make ~name:"cached shuffled sweep = fresh solves" ~count:40
    (Q.make
       ~print:(fun (seed, c0) -> Printf.sprintf "seed=%d c0=%d" seed c0)
       Q.Gen.(
         int_range 0 10000 >>= fun seed ->
         int_range 3 40 >>= fun c0 -> return (seed, c0)))
    (fun (seed, c0) ->
      let rng = Rng.create seed in
      let budgets =
        Rng.shuffle rng (Array.init 8 (fun _ -> c0 - 1 + Rng.int rng 900))
      in
      let cache = Tdp.Cache.create () in
      let agrees elements b =
        let p = Problem.create ~elements ~budget:b ~latency:model in
        let cached = Tdp.solve ~cache p and fresh = Tdp.solve p in
        cached.Tdp.sequence = fresh.Tdp.sequence
        && Float.equal cached.Tdp.latency fresh.Tdp.latency
        && cached.Tdp.questions_used = fresh.Tdp.questions_used
      in
      Array.for_all (fun b -> agrees c0 b) budgets
      && agrees (c0 - 1) (2 * c0))

(* --- the on-demand unconstrained table ------------------------------------ *)

(* Linear models under the round-count bound, corners included: delta =
   0 (every plan asking c - 1 questions ties, so forcing chains run
   deep), alpha = 0 (every plan of R rounds ties), a tiny alpha (plans a
   few questions apart differ inside the bound's margin) and large
   parameters. *)
let bound_params =
  Q.Gen.(
    oneof [ return 0.0; float_range 0.0 500.0; return 1e6 ] >>= fun delta ->
    oneof [ return 0.0; return 1e-6; float_range 0.0 3.0; return 1e3 ]
    >>= fun alpha -> return (delta, alpha))

let same_solution (a : Tdp.solution) (b : Tdp.solution) =
  a.Tdp.sequence = b.Tdp.sequence
  && Int64.equal
       (Int64.bits_of_float a.Tdp.latency)
       (Int64.bits_of_float b.Tdp.latency)
  && a.Tdp.questions_used = b.Tdp.questions_used

(* A model spec: 0 = linear under the round-count bound (with the corner
   parameters above), 1 = linear outside it (negative or subnormal
   alpha), 2 = power, 3 = piecewise, 4 = custom (a fresh closure per
   call: build the model once per case). Specs outside the bound settle
   every DP state, so their instances stay small. *)
let spec_model (kind, delta, alpha) =
  match kind with
  | 2 -> Model.power ~delta ~alpha ~p:1.5
  | 3 ->
      Model.piecewise
        [|
          (0, delta);
          (40, delta +. (40.0 *. alpha));
          (90, delta +. (300.0 *. alpha));
        |]
  | 4 -> Model.Custom (fun q -> delta +. (alpha *. sqrt (float_of_int q)))
  | _ -> Model.linear ~delta ~alpha

(* Specs outside the bound, every kind: linear with negative or
   subnormal alpha, power, piecewise and custom. *)
let unbound_spec_gen =
  Q.Gen.(
    oneof
      [
        (oneofl [ (200.0, -0.01); (100.0, 1e-310) ] >|= fun (d, a) -> (1, d, a));
        ( int_range 2 4 >>= fun kind ->
          float_range 0.0 400.0 >>= fun d ->
          oneof [ float_range 0.0 3.0; return 0.0 ] >|= fun a -> (kind, d, a) );
      ])

let prop_ub_on_demand_matches_seed =
  (* c0 up to 1000 at any budget, generous ones (q0 >= choose2 c0, which
     return ub(c0) itself and must reproduce the seed solver's plan)
     included, plus fixed generous-budget corners: the paper's L(q) at
     c0 = 1000, delta = 0 (long forcing chains), alpha = 0 (every plan
     of R rounds ties) and alpha tiny or large against delta. Generated
     alpha = 0 stays at c0 <= 200: its ties make tight budgets settle
     ~10^4 states at c0 = 1000, with or without the on-demand table.
     Models outside the bound (every kind, c0 <= 100) compute their
     entries with the same producer and must match the same table. *)
  let corners =
    [
      ((239.0, 0.06), 1000); ((0.0, 0.5), 600); ((300.0, 0.0), 400);
      ((500.0, 1e-6), 700); ((1e6, 1e3), 250); ((1.0, 1e3), 250);
    ]
  in
  Q.Test.make ~name:"on-demand ub entries = seed table" ~count:60
    (Q.make
       ~print:(fun ((k, d, a), c0, b) ->
         Printf.sprintf "(kind=%d, delta=%g, alpha=%g, c0=%d, b=%d)" k d a c0 b)
       Q.Gen.(
         let budget c0 =
           oneof [ int_range (c0 - 1) (4 * c0); return (Ints.choose2 c0) ]
         in
         frequency
           [
             ( 3,
               bound_params >>= fun (d, a) ->
               int_range 2 (if Float.equal a 0.0 then 200 else 1000)
               >>= fun c0 ->
               budget c0 >>= fun b -> return ((0, d, a), c0, b) );
             ( 2,
               unbound_spec_gen >>= fun spec ->
               int_range 2 100 >>= fun c0 ->
               budget c0 >>= fun b -> return (spec, c0, b) );
             ( 1,
               oneofl corners >|= fun ((d, a), c0) ->
               ((0, d, a), c0, Ints.choose2 c0) );
           ]))
    (fun (spec, c0, b) ->
      let model = spec_model spec in
      let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
      let cache = Tdp.Cache.create () in
      let sol = Tdp.solve ~cache p in
      Test_tdp.ub_entries_match_seed model cache
      && (b < Ints.choose2 c0
         || same_solution sol (Tdp_reference.solve_hashtbl p)))

let prop_forced_cache_sweep_equals_fresh =
  (* A cache that computed its entries at one (c0, budget), then reused
     across a shuffled budget sweep and a smaller c0, answers every
     solve exactly as a fresh solver does. *)
  Q.Test.make ~name:"forced ub cache, shuffled sweep = fresh solves" ~count:40
    (Q.make
       ~print:(fun ((d, a), seed, c0) ->
         Printf.sprintf "(delta=%g, alpha=%g, seed=%d, c0=%d)" d a seed c0)
       Q.Gen.(
         bound_params >>= fun params ->
         int_range 0 10000 >>= fun seed ->
         int_range 3 300 >>= fun c0 -> return (params, seed, c0)))
    (fun ((delta, alpha), seed, c0) ->
      let model = Model.linear ~delta ~alpha in
      let rng = Rng.create seed in
      let budget () = c0 - 1 + Rng.int rng (4 * c0) in
      let cache = Tdp.Cache.create () in
      let agrees elements b =
        let p = Problem.create ~elements ~budget:b ~latency:model in
        same_solution (Tdp.solve ~cache p) (Tdp.solve p)
      in
      let b0 = budget () in
      let sweep = Rng.shuffle rng (Array.init 8 (fun _ -> budget ())) in
      agrees c0 b0
      && Array.for_all (agrees c0) sweep
      && agrees (c0 - 1) (2 * c0)
      && Test_tdp.ub_entries_match_seed model cache)

(* --- caches sharing one domain's planner workspace ------------------------- *)

let spec_gen =
  Q.Gen.(
    frequency
      [
        (3, bound_params >|= fun (d, a) -> (0, d, a));
        ( 1,
          oneofl [ (200.0, -0.01); (100.0, 1e-310) ] >|= fun (d, a) -> (1, d, a)
        );
        (1, return (2, 239.0, 0.002));
      ])

let max_c0 (kind, _, alpha) =
  if kind <> 0 then 100 else if Float.equal alpha 0.0 then 150 else 400

let prop_interleaved_caches_equal_private =
  (* Two or three caches take turns on one domain, so each solve may
     find the workspace's stacks and round-count rows last used by
     another cache, by the same cache before a rebuild, or sized for
     smaller instances. Every solve must match a fresh private solve
     (sequence, latency bits, questions), and its [states_visited] must
     match the same cache history replayed without interleaving — on a
     cold (rebuilt) cache that is the fresh solve's count. The sequence
     runs in a new domain, so the workspace starts empty and grows as
     the generated c0 pass 64, 128 and 256. *)
  let op_gen specs ncaches =
    Q.Gen.(
      int_range 0 (ncaches - 1) >>= fun ci ->
      int_range 0 (Array.length specs - 1) >>= fun si ->
      int_range 3 (max_c0 specs.(si)) >>= fun c0 ->
      oneof [ int_range (c0 - 1) (4 * c0); return (Ints.choose2 c0) ]
      >>= fun b -> return (ci, si, c0, b))
  in
  Q.Test.make ~name:"interleaved caches on one domain = private solves"
    ~count:30
    (Q.make
       ~print:(fun (specs, ncaches, ops) ->
         Printf.sprintf "specs=[%s] caches=%d ops=[%s]"
           (String.concat "; "
              (Array.to_list
                 (Array.map
                    (fun (k, d, a) -> Printf.sprintf "(%d, %g, %g)" k d a)
                    specs)))
           ncaches
           (String.concat "; "
              (List.map
                 (fun (ci, si, c0, b) ->
                   Printf.sprintf "(cache %d, spec %d, c0=%d, b=%d)" ci si c0
                     b)
                 ops)))
       Q.Gen.(
         array_repeat 2 spec_gen >>= fun specs ->
         int_range 2 3 >>= fun ncaches ->
         list_size (int_range 4 10) (op_gen specs ncaches) >>= fun ops ->
         return (specs, ncaches, ops)))
    (fun (specs, ncaches, ops) ->
      let problem (_, si, c0, b) =
        Problem.create ~elements:c0 ~budget:b ~latency:(spec_model specs.(si))
      in
      let check () =
        let caches = Array.init ncaches (fun _ -> Tdp.Cache.create ()) in
        let interleaved =
          List.map
            (fun ((ci, _, _, _) as op) ->
              let p = problem op in
              let misses = Tdp.Cache.misses caches.(ci) in
              let sol = Tdp.solve ~cache:caches.(ci) p in
              let fresh = Tdp.solve p in
              let cold = Tdp.Cache.misses caches.(ci) > misses in
              ( op,
                sol,
                same_solution sol fresh
                && ((not cold)
                   || sol.Tdp.states_visited = fresh.Tdp.states_visited) ))
            ops
        in
        List.for_all (fun (_, _, ok) -> ok) interleaved
        && List.for_all
             (fun ci ->
               let twin = Tdp.Cache.create () in
               List.for_all
                 (fun ((cj, _, _, _) as op, (sol : Tdp.solution), _) ->
                   cj <> ci
                   ||
                   let replay = Tdp.solve ~cache:twin (problem op) in
                   same_solution sol replay
                   && sol.Tdp.states_visited = replay.Tdp.states_visited)
                 interleaved)
             (List.init ncaches Fun.id)
      in
      Domain.join (Domain.spawn check))

let prop_adaptive_replicate_jobs_deterministic =
  (* Per-chunk plan caches re-planning every round: under [jobs:2] the
     chunks solve on two domains' workspaces and split the runs
     differently among caches, and the aggregate must not notice. The
     model shift makes every cache rebuild mid-run. *)
  let module A = Crowdmax_runtime.Adaptive in
  Q.Test.make ~name:"oracle adaptive replicate: jobs 1 = jobs 2" ~count:4
    (Q.make ~print:(Printf.sprintf "seed=%d") Q.Gen.(int_range 0 10_000))
    (fun seed ->
      let problem =
        Problem.create ~elements:150 ~budget:450 ~latency:Model.paper_mturk
      in
      let agg jobs =
        A.replicate ~jobs
          ~model_shift:(2, Model.linear ~delta:120.0 ~alpha:0.3)
          ~runs:6 ~seed ~problem ~selection:S.tournament ()
      in
      let a = agg 1 and b = agg 2 in
      E.equal_stats a.A.engine_aggregate b.A.engine_aggregate
      && a.A.total_replans = b.A.total_replans)

(* --- latency models ------------------------------------------------------ *)

let valid_knots_and_q =
  (* Strictly increasing non-negative x, finite y — everything
     [Model.piecewise] accepts — plus a query point reaching past the
     last knot into extrapolation territory. *)
  Q.make
    ~print:(fun (knots, q) ->
      Printf.sprintf "knots=[%s] q=%d"
        (String.concat "; "
           (Array.to_list
              (Array.map (fun (x, y) -> Printf.sprintf "(%d, %g)" x y) knots)))
        q)
    Q.Gen.(
      int_range 1 8 >>= fun n ->
      int_range 0 10 >>= fun x0 ->
      list_repeat n (pair (int_range 1 10) (float_range (-50.0) 500.0))
      >>= fun steps ->
      let knots =
        let x = ref x0 and acc = ref [] in
        List.iteri
          (fun i (dx, y) ->
            if i > 0 then x := !x + dx;
            acc := (!x, y) :: !acc)
          steps;
        Array.of_list (List.rev !acc)
      in
      let xn = fst knots.(Array.length knots - 1) in
      int_range 0 (xn + 20) >>= fun q -> return (knots, q))

let prop_piecewise_eval_sane =
  Q.Test.make ~name:"piecewise eval: finite, bounded, extrapolation exact"
    ~count valid_knots_and_q (fun (knots, q) ->
      let m = Model.piecewise knots in
      let v = Model.eval m q in
      let n = Array.length knots in
      let xn, yn = knots.(n - 1) in
      if not (Float.is_finite v) then false
      else if q <= xn then begin
        (* On [0, xn] the model interpolates (or clamps below the first
           knot): values stay inside the knot-y envelope. *)
        let lo = Array.fold_left (fun a (_, y) -> Float.min a y) infinity knots in
        let hi =
          Array.fold_left (fun a (_, y) -> Float.max a y) neg_infinity knots
        in
        lo -. 1e-9 <= v && v <= hi +. 1e-9
      end
      else if n = 1 then Float.equal v yn
      else begin
        (* Past the last knot: exactly the last segment's slope. *)
        let xp, yp = knots.(n - 2) in
        let slope = (yn -. yp) /. float_of_int (xn - xp) in
        Float.equal v (yn +. (slope *. float_of_int (q - xn)))
      end)

(* --- metrics determinism -------------------------------------------------- *)

let prop_metrics_deterministic =
  (* Same seed => bit-identical simulated-metric documents, whatever the
     parallelism. (Real-time spans are the documented exception.) *)
  let module M = Crowdmax_obs.Metrics in
  Q.Test.make ~name:"metrics documents deterministic given seed" ~count:10
    (Q.make ~print:(Printf.sprintf "seed=%d") Q.Gen.(int_range 0 10_000))
    (fun seed ->
      let sol =
        Tdp.solve (Problem.create ~elements:12 ~budget:60 ~latency:Model.paper_mturk)
      in
      let cfg =
        E.config
          ~source:
            (E.Simulated
               {
                 platform = Crowdmax_crowd.Platform.create ();
                 rwl = { Rwl.votes = 3; error = W.Uniform 0.1 };
               })
          ~deadline:(E.Fixed 400.0) ~straggler:E.Carry_forward
          ~allocation:sol.Tdp.allocation ~selection:S.tournament
          ~latency_model:Model.paper_mturk ()
      in
      let snap jobs =
        M.simulated_only
          (snd (E.replicate_with_metrics ~jobs ~runs:4 ~seed cfg ~elements:12))
      in
      let a = snap 1 in
      a <> [] && M.equal a (snap 1) && M.equal a (snap 2))

(* --- closed-loop estimation ----------------------------------------------- *)

let prop_fit_recovers_model =
  (* Exact (noise-free) observations over a size ladder: the fit must
     hand back the generating parameters. This is the estimator's
     ground-truth contract the NaN guards protect — a silent bad fit
     here corrupts every closed-loop re-plan downstream. *)
  let module Est = Crowdmax_latency.Estimate in
  let gen =
    Q.make
      ~print:(fun (d, a, p) -> Printf.sprintf "delta=%g alpha=%g p=%g" d a p)
      Q.Gen.(
        float_range 1.0 500.0 >>= fun d ->
        float_range 0.01 5.0 >>= fun a ->
        float_range 0.6 1.8 >>= fun p -> return (d, a, p))
  in
  Q.Test.make ~name:"fit recovers the generating latency model" ~count:60 gen
    (fun (delta, alpha, p) ->
      let sizes = [ 5; 10; 20; 40; 80; 160 ] in
      let obs m =
        List.map
          (fun q -> { Est.batch_size = q; seconds = Model.eval m q })
          sizes
      in
      let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
      let linear_ok =
        match Est.fit_linear (obs (Model.linear ~delta ~alpha)) with
        | Model.Linear f -> close f.delta delta && close f.alpha alpha
        | _ -> false
      in
      let power_ok =
        match
          Est.refit ~like:(Model.power ~delta ~alpha ~p)
            (obs (Model.power ~delta ~alpha ~p))
        with
        | Model.Power f ->
            (* delta is anchored by ~like; alpha and p are solved *)
            close f.delta delta
            && Float.abs (f.alpha -. alpha) <= 1e-3 *. Float.max 1.0 alpha
            && Float.abs (f.p -. p) <= 1e-3
        | _ -> false
      in
      linear_ok && power_ok)

let prop_closed_loop_replicate_jobs_deterministic =
  (* The re-fit loop must preserve the engine's any-jobs bit-identity
     for arbitrary seeds, not just the pinned ones: window bookkeeping,
     drift counters and cache invalidation are all per-run state. *)
  let module A = Crowdmax_runtime.Adaptive in
  Q.Test.make ~name:"closed-loop replicate deterministic for jobs 1/2/4"
    ~count:6
    (Q.make ~print:(Printf.sprintf "seed=%d") Q.Gen.(int_range 0 10_000))
    (fun seed ->
      let problem =
        Problem.create ~elements:60 ~budget:180 ~latency:Model.paper_mturk
      in
      let simulated scale =
        let c = Crowdmax_crowd.Platform.default_config in
        let config =
          {
            c with
            Crowdmax_crowd.Platform.base_rate = c.Crowdmax_crowd.Platform.base_rate *. scale;
            attract_per_question = c.Crowdmax_crowd.Platform.attract_per_question *. scale;
          }
        in
        E.Simulated
          {
            platform = Crowdmax_crowd.Platform.create ~config ();
            rwl = { Rwl.votes = 3; error = W.Uniform 0.15 };
          }
      in
      let agg jobs =
        A.replicate ~jobs ~source:(simulated 1.0) ~refit:(A.On_drift 0.5)
          ~source_shift:(1, simulated 0.2) ~runs:4 ~seed ~problem
          ~selection:S.tournament ()
      in
      let base = agg 1 in
      List.for_all
        (fun jobs ->
          let p = agg jobs in
          E.equal_stats base.A.engine_aggregate p.A.engine_aggregate
          && base.A.total_replans = p.A.total_replans
          && base.A.total_refits = p.A.total_refits
          && base.A.total_drift_detected = p.A.total_drift_detected
          && base.A.total_replans_on_drift = p.A.total_replans_on_drift)
        [ 2; 4 ])

(* Two drivers of the same per-query round loop must agree: a
   one-query server fleet without a contention model is the adaptive
   runtime on a simulated source, draw for draw. The server always
   resolves votes against its completion report, which is the adaptive
   side's finite-deadline path, so [Wait_all] maps to a deadline past
   every event. *)
let prop_one_query_fleet_matches_adaptive =
  let module A = Crowdmax_runtime.Adaptive in
  let module Server = Crowdmax_server.Server in
  let module P = Crowdmax_crowd.Platform in
  let deadline_gen =
    Q.Gen.(
      int_range 0 2 >>= function
      | 0 -> return E.Wait_all
      | 1 -> map (fun d -> E.Fixed d) (float_range 50.0 800.0)
      | _ -> map (fun p -> E.Quantile p) (float_range 0.05 1.0))
  in
  let show = function
    | E.Wait_all -> "Wait_all"
    | E.Fixed d -> Printf.sprintf "Fixed %h" d
    | E.Quantile p -> Printf.sprintf "Quantile %h" p
  in
  Q.Test.make ~name:"one-query fleet = adaptive run on a simulated source"
    ~count:200
    (Q.make
       ~print:(fun (elements, slack, votes, err, deadline, seed) ->
         Printf.sprintf "elements=%d slack=%d votes=%d error=%h %s seed=%d"
           elements slack votes err (show deadline) seed)
       Q.Gen.(
         int_range 3 120 >>= fun elements ->
         int_range 0 (3 * elements) >>= fun slack ->
         int_range 1 4 >>= fun votes ->
         float_range 0.0 0.3 >>= fun err ->
         deadline_gen >>= fun deadline ->
         int_range 0 100_000 >>= fun seed ->
         return (elements, slack, votes, err, deadline, seed)))
    (fun (elements, slack, votes, err, deadline, seed) ->
      let budget = elements - 1 + slack in
      let error = W.Uniform err in
      let platform = P.create () in
      let latency = Model.paper_mturk in
      let truth = G.random (Rng.create (seed + 1)) elements in
      let fleet =
        Server.run ~platform ~latency ~selection:S.tournament (Rng.create seed)
          [| Server.query_spec ~votes ~error ~deadline ~elements ~budget () |]
          [| truth |]
      in
      let q = fleet.Server.queries.(0) in
      let solo =
        (A.run
           ~source:(E.Simulated { platform; rwl = { Rwl.votes; error } })
           ~deadline:
             (match deadline with E.Wait_all -> E.Fixed 1e300 | d -> d)
           (Rng.create seed)
           ~problem:(Problem.create ~elements ~budget ~latency)
           ~selection:S.tournament truth)
          .A.engine_result
      in
      q.Server.chosen = solo.E.chosen
      && Int64.equal
           (Int64.bits_of_float q.Server.latency)
           (Int64.bits_of_float solo.E.total_latency)
      && q.Server.questions = solo.E.questions_posted
      && q.Server.rounds = solo.E.rounds_run)

(* The shared marketplace over generated fleets: 1-8 queries (empty ones
   included), deadlines that never bind, cut before anything is visible
   or land mid-batch, both pick policies, diurnal supply on and off.
   Every query conserves its questions, no answer is delivered after
   its query's cutoff, the callbacks are exactly the counted
   completions, every processed event is an arrival, a counted
   completion or a discard, and a rerun from the same seed through a
   reused scratch is bit-identical, completion stream included. *)
let prop_shared_market_invariants =
  let module P = Crowdmax_crowd.Platform in
  let module M = Crowdmax_obs.Metrics in
  let post = P.default_config.P.post_overhead in
  let deadline_gen =
    Q.Gen.(
      oneof
        [
          return Float.infinity;
          float_range 1.0 (post -. 1.0);
          map (fun d -> post +. d) (float_range 1.0 400.0);
        ])
  in
  let size_gen = Q.Gen.(oneof [ return 0; int_range 1 200 ]) in
  let scratch = P.scratch () in
  Q.Test.make ~name:"shared market: conservation, cutoffs, accounting"
    ~count:200
    (Q.make
       ~print:(fun (qs, deadlines, proportional, diurnal, seed) ->
         Printf.sprintf "qs=[%s] deadlines=[%s] %s diurnal=%b seed=%d"
           (String.concat "; " (List.map string_of_int (Array.to_list qs)))
           (String.concat "; "
              (List.map (Printf.sprintf "%h") (Array.to_list deadlines)))
           (if proportional then "Proportional" else "Fifo")
           diurnal seed)
       Q.Gen.(
         int_range 1 8 >>= fun nq ->
         array_repeat nq size_gen >>= fun qs ->
         array_repeat nq deadline_gen >>= fun deadlines ->
         bool >>= fun proportional ->
         bool >>= fun diurnal ->
         int_range 0 100_000 >>= fun seed ->
         return (qs, deadlines, proportional, diurnal, seed)))
    (fun (qs, deadlines, proportional, diurnal, seed) ->
      let config =
        if diurnal then
          { P.default_config with P.diurnal_amplitude = 0.8;
            diurnal_period = 4000.0 }
        else P.default_config
      in
      let platform = P.create ~config () in
      let pick = if proportional then P.Proportional else P.Fifo in
      let run ?scratch () =
        let metrics = M.create () in
        let stream = ref [] in
        let reports =
          P.simulate_shared ~deadlines ~metrics ?scratch platform
            (Rng.create seed) ~pick
            ~on_complete:(fun ~query idx time ->
              stream := (query, idx, Int64.bits_of_float time) :: !stream)
            qs
        in
        (reports, List.rev !stream, M.snapshot metrics)
      in
      let reports, stream, snap = run () in
      let count name =
        match M.find snap ~section:"platform" name with
        | Some (M.Count n) -> n
        | _ -> 0
      in
      let bits (r : P.report) =
        ( Int64.bits_of_float r.P.latency,
          Int64.bits_of_float r.P.last_completion,
          (r.P.completed, r.P.in_flight, r.P.unassigned, r.P.deadline_hit) )
      in
      let callbacks = Array.make (Array.length qs) 0 in
      List.iter
        (fun (query, _, _) -> callbacks.(query) <- callbacks.(query) + 1)
        stream;
      let reports2, stream2, _ = run ~scratch () in
      Array.for_all2
        (fun q (r : P.report) ->
          r.P.completed + r.P.in_flight + r.P.unassigned = q)
        qs reports
      && List.for_all
           (fun (query, _, time) ->
             Int64.float_of_bits time <= deadlines.(query))
           stream
      && Array.for_all2
           (fun n (r : P.report) -> n = r.P.completed)
           callbacks reports
      && count "events_drained"
         = count "worker_arrivals" + count "completions"
           + count "shared_discarded_answers"
      && Array.map bits reports = Array.map bits reports2
      && stream = stream2)

(* The reference vote step the platform's in-loop tally replaced:
   raw completion [idx] of a [votes * posted] batch credits question
   [idx mod posted], and slots at or past the counted length are
   padding. *)
let count_vote counts ~posted idx =
  let slot = idx mod posted in
  if slot < Array.length counts then counts.(slot) <- counts.(slot) + 1

(* In-loop tallies against the completion stream, over generated solo
   and shared markets: 1-8 queries of 1-4 votes over 0-60 posted slots,
   of which a prefix is counted (the rest is padding), deadlines that
   never bind, cut before anything is visible or land mid-batch
   (withdrawals and discards), both pick policies, steady, diurnal and
   fixed-service supply. A run that tallies must credit exactly what
   [count_vote] builds from a plain run's observed stream, padding
   slots included, and must leave the reports, the rng draws and the
   stream (up to the slot wrap) as they were; a tallying run with no
   observer tallies the same. The solo case runs [simulate] on the
   first query. *)
let prop_tallies_match_stream =
  let module P = Crowdmax_crowd.Platform in
  let post = P.default_config.P.post_overhead in
  let deadline_gen =
    Q.Gen.(
      oneof
        [
          return Float.infinity;
          float_range 1.0 (post -. 1.0);
          map (fun d -> post +. d) (float_range 1.0 400.0);
        ])
  in
  let query_gen =
    Q.Gen.(
      int_range 1 4 >>= fun votes ->
      oneof [ return 0; int_range 1 60 ] >>= fun posted ->
      int_range 0 posted >>= fun counted ->
      deadline_gen >>= fun deadline -> return (votes, posted, counted, deadline))
  in
  let configs =
    [|
      P.default_config;
      { P.default_config with P.diurnal_amplitude = 0.8; diurnal_period = 4000.0 };
      { P.default_config with
        P.service = { W.median_seconds = 20.0; sigma = 0.0 } };
    |]
  in
  Q.Test.make ~name:"in-loop tallies = count_vote over the completion stream"
    ~count:200
    (Q.make
       ~print:(fun (queries, proportional, config, seed) ->
         Printf.sprintf "queries=[%s] %s config=%d seed=%d"
           (String.concat "; "
              (List.map
                 (fun (v, p, c, d) -> Printf.sprintf "(%d,%d,%d,%h)" v p c d)
                 (Array.to_list queries)))
           (if proportional then "Proportional" else "Fifo")
           config seed)
       Q.Gen.(
         int_range 1 8 >>= fun nq ->
         array_repeat nq query_gen >>= fun queries ->
         bool >>= fun proportional ->
         int_range 0 (Array.length configs - 1) >>= fun config ->
         int_range 0 100_000 >>= fun seed ->
         return (queries, proportional, config, seed)))
    (fun (queries, proportional, config, seed) ->
      let platform = P.create ~config:configs.(config) () in
      let pick = if proportional then P.Proportional else P.Fifo in
      let posted = Array.map (fun (_, p, _, _) -> p) queries in
      let counted = Array.map (fun (_, _, c, _) -> c) queries in
      let raw = Array.map (fun (v, p, _, _) -> v * p) queries in
      let deadlines = Array.map (fun (_, _, _, d) -> d) queries in
      let bits (r : P.report) =
        ( Int64.bits_of_float r.P.latency,
          Int64.bits_of_float r.P.last_completion,
          (r.P.completed, r.P.in_flight, r.P.unassigned, r.P.deadline_hit) )
      in
      let fresh_tallies () = Array.map (fun p -> Array.make p 0) posted in
      (* Each run returns its reports' bits, its observed stream, and
         the rng's draw count and next value. *)
      let run ~observe ?tallies () =
        let rng = Rng.create seed in
        let base = Rng.copy rng in
        let stream = ref [] in
        let on_complete ~query idx time =
          stream := (query, idx, Int64.bits_of_float time) :: !stream
        in
        let reports =
          if observe then
            P.simulate_shared ~deadlines ?tallies ~on_complete platform rng
              ~pick raw
          else P.simulate_shared ~deadlines ?tallies platform rng ~pick raw
        in
        ( Array.map bits reports,
          Array.map (fun (r : P.report) -> r.P.completed) reports,
          List.rev !stream,
          (Rng.draws_since ~base rng, Rng.bits64 rng) )
      in
      let reports, completed, stream, draws = run ~observe:true () in
      let reference = Array.map (fun c -> Array.make c 0) counted in
      List.iter
        (fun (query, idx, _) ->
          count_vote reference.(query) ~posted:posted.(query) idx)
        stream;
      let tallies = fresh_tallies () in
      let reports_t, _, stream_t, draws_t = run ~observe:true ~tallies () in
      let quiet = fresh_tallies () in
      let reports_q, _, _, draws_q = run ~observe:false ~tallies:quiet () in
      let wrapped =
        List.map
          (fun (query, idx, time) -> (query, idx mod posted.(query), time))
          stream
      in
      let counted_prefix_ok =
        Array.for_all2
          (fun tally reference ->
            Array.sub tally 0 (Array.length reference) = reference)
          tallies reference
      in
      let sum a = Array.fold_left ( + ) 0 a in
      (* The solo loop on the first query. *)
      let solo =
        let rng = Rng.create seed and rng_t = Rng.create seed in
        let idxs = ref [] in
        let r =
          P.simulate ~deadline:deadlines.(0) platform rng raw.(0)
            ~on_complete:(fun idx _ -> idxs := idx :: !idxs)
        in
        let tally = Array.make posted.(0) 0 in
        let r_t =
          P.simulate ~deadline:deadlines.(0) ~tally platform rng_t raw.(0)
        in
        let reference = Array.make counted.(0) 0 in
        List.iter (count_vote reference ~posted:posted.(0)) !idxs;
        bits r = bits r_t
        && Int64.equal (Rng.bits64 rng) (Rng.bits64 rng_t)
        && Array.sub tally 0 counted.(0) = reference
        && sum tally = r.P.completed
      in
      counted_prefix_ok
      && Array.for_all2 (fun tally n -> sum tally = n) tallies completed
      && reports_t = reports && reports_q = reports
      && draws_t = draws && draws_q = draws
      && stream_t = wrapped
      && Array.for_all2 (fun a b -> a = b) quiet tallies
      && solo)

let suite =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_q_function_bounds;
          prop_q_decreasing;
          prop_sizes_partition;
          prop_tdp_beats_brute_force;
          prop_tdp_within_budget;
          prop_tdp_beats_heuristics;
          prop_theorem3_edge_bound;
          prop_adaptive_matches_static_on_tournaments;
          prop_maxrc_equals_maxind;
          prop_greedy_below_exact;
          prop_expected_rc_formula;
          prop_tournament_minimizes_expected_rc;
          prop_scoring_conserves_energy;
          prop_tournament_selection_singleton;
          prop_heuristics_singleton_under_tournament;
          prop_rwl_always_conflict_free;
          prop_topk_prefix_consistency;
          prop_cost_frontier_pareto;
          prop_rng_int_rejection_bound;
          prop_rng_split_streams_independent;
          prop_selection_rounds_valid;
          prop_flat_solver_equivalence;
          prop_linear_latency_is_round_bound;
          prop_cached_sweep_equals_fresh;
          prop_ub_on_demand_matches_seed;
          prop_forced_cache_sweep_equals_fresh;
          prop_interleaved_caches_equal_private;
          prop_adaptive_replicate_jobs_deterministic;
          prop_piecewise_eval_sane;
          prop_metrics_deterministic;
          prop_fit_recovers_model;
          prop_closed_loop_replicate_jobs_deterministic;
          prop_one_query_fleet_matches_adaptive;
          prop_shared_market_invariants;
          prop_tallies_match_stream;
        ] );
  ]
