open Crowdmax_util
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module T = Crowdmax_tournament.Tournament

type round_input = {
  budget : int;
  candidates : int array;
  history : Dag.t;
  round_index : int;
  total_rounds : int;
  carried : (int * int) list;
}

type t = {
  name : string;
  select : Rng.t -> round_input -> (int * int) list;
}

let norm_pair a b = if a < b then (a, b) else (b, a)

(* Universe bound for this round's Pair_set: the history covers every
   engine-produced candidate; hand-built inputs may exceed it. *)
let universe input =
  Array.fold_left
    (fun m e -> if e >= m then e + 1 else m)
    (Dag.size input.history) input.candidates

(* Candidates of this round ordered strongest-first: Scoring's ranking
   restricted to the round's candidate set. In the standard engine the
   two sets coincide; when they differ (hand-built inputs) the raw
   candidate array is used as-is. Shared by COMPLETE, GREEDY and HILL. *)
let ranked_in_round input =
  let c = Array.length input.candidates in
  let n = Dag.size input.history in
  let mark = Bytes.make n '\000' in
  let in_range = ref true in
  Array.iter
    (fun e ->
      if e >= 0 && e < n then Bytes.set mark e '\001' else in_range := false)
    input.candidates;
  if not !in_range then input.candidates
  else begin
    let out = Array.make c 0 in
    let k = ref 0 in
    Array.iter
      (fun e ->
        if Bytes.get mark e = '\001' then begin
          out.(!k) <- e;
          incr k
        end)
      (Scoring.ranked_array input.history);
    if !k = c then out else input.candidates
  end

(* --- Tournament-formation ------------------------------------------- *)

let cross_group_extras rng groups budget asked =
  (* Random pairs between elements of different cliques, avoiding pairs
     already asked this round; gives up after enough failed draws, which
     only happens when few distinct cross pairs remain. *)
  let k = Array.length groups in
  let extras = ref [] in
  let remaining = ref budget in
  let attempts = ref 0 in
  let max_attempts = 50 * (budget + 1) in
  if k >= 2 then
    while !remaining > 0 && !attempts < max_attempts do
      incr attempts;
      let gi = Rng.int rng k in
      let gj = Rng.int rng k in
      if gi <> gj then begin
        let a = Rng.choose rng groups.(gi) in
        let b = Rng.choose rng groups.(gj) in
        if Pair_set.add asked a b then begin
          extras := norm_pair a b :: !extras;
          decr remaining
        end
      end
    done;
  !extras

let tournament_select rng input =
  let c = Array.length input.candidates in
  if c <= 1 || input.budget < 1 then []
  else
    match T.min_groups_within_budget c input.budget with
    | None -> []
    | Some groups_count ->
        let assignment = T.assign rng input.candidates groups_count in
        let base = T.edges_of_assignment assignment in
        let leftover = input.budget - List.length base in
        if leftover <= 0 || groups_count < 2 then base
          (* No extras are possible: either the tournament itself filled
             the budget, or there is a single group and hence no cross
             pair. Both make the asked-set and the final append pure
             overhead, and cross_group_extras draws nothing in either
             case, so skipping them cannot shift the RNG stream. *)
        else begin
          let asked = Pair_set.create ~expected:input.budget (universe input) in
          List.iter (fun (a, b) -> ignore (Pair_set.add asked a b)) base;
          let extras =
            cross_group_extras rng assignment.T.groups leftover asked
          in
          base @ extras
        end

let tournament = { name = "Tournament"; select = tournament_select }

(* --- SPREAD ---------------------------------------------------------- *)

let spread_select rng input =
  let c = Array.length input.candidates in
  if c <= 1 || input.budget < 1 then []
  else begin
    let asked = Pair_set.create ~expected:input.budget (universe input) in
    let picked = ref [] in
    let remaining = ref input.budget in
    let stalled = ref false in
    (* Stack random near-perfect matchings: each pass pairs up a fresh
       shuffle of the candidates, adding degree one per element, so the
       question counts stay as even as possible. *)
    while !remaining > 0 && not !stalled do
      let order = Rng.shuffle rng input.candidates in
      let added_this_pass = ref 0 in
      let i = ref 0 in
      while !i + 1 < c && !remaining > 0 do
        if Pair_set.add asked order.(!i) order.(!i + 1) then begin
          picked := norm_pair order.(!i) order.(!i + 1) :: !picked;
          decr remaining;
          incr added_this_pass
        end;
        i := !i + 2
      done;
      if !added_this_pass = 0 then
        (* The random matching collided everywhere; fall back to a scan
           for any unasked pair, or stop when the clique is exhausted. *)
        let found = ref false in
        (try
           for a = 0 to c - 1 do
             for b = a + 1 to c - 1 do
               let x = input.candidates.(a) and y = input.candidates.(b) in
               if !remaining > 0 && Pair_set.add asked x y then begin
                 picked := norm_pair x y :: !picked;
                 decr remaining;
                 found := true;
                 raise Exit
               end
             done
           done
         with Exit -> ());
        if not !found then stalled := true
    done;
    !picked
  end

let spread = { name = "SPREAD"; select = spread_select }

(* --- COMPLETE --------------------------------------------------------- *)

let complete_select rng input =
  let c = Array.length input.candidates in
  if c <= 1 || input.budget < 1 then []
  else begin
    (* The history ranks all unbeaten elements; restrict to this round's
       candidate set (they coincide in the standard engine). *)
    let ranked = ranked_in_round input in
    (* Largest clique k with choose2 k + (c - k) within budget; at least 2
       when any question fits. *)
    let k = ref (min c 2) in
    while
      !k < c && Ints.choose2 (!k + 1) + (c - (!k + 1)) <= input.budget
    do
      incr k
    done;
    let k = if Ints.choose2 !k + (c - !k) <= input.budget then !k else min c 2 in
    let clique = Array.sub ranked 0 (min k (Array.length ranked)) in
    let rest = Array.sub ranked (Array.length clique) (c - Array.length clique) in
    let asked = Pair_set.create ~expected:input.budget (universe input) in
    let picked = ref [] in
    let remaining = ref input.budget in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        picked := norm_pair a b :: !picked;
        decr remaining
      end
    in
    let kk = Array.length clique in
    for i = 0 to kk - 1 do
      for j = i + 1 to kk - 1 do
        add clique.(i) clique.(j)
      done
    done;
    (* One question per non-clique candidate against a random clique
       member, budget permitting. *)
    if kk > 0 then
      Array.iter (fun e -> add e (Rng.choose rng clique)) rest;
    (* Extra budget: more random rest-vs-clique pairs. *)
    let attempts = ref 0 in
    if kk > 0 && Array.length rest > 0 then
      while !remaining > 0 && !attempts < 50 * (!remaining + 1) do
        incr attempts;
        add (Rng.choose rng rest) (Rng.choose rng clique)
      done;
    !picked
  end

let complete = { name = "COMPLETE"; select = complete_select }

(* --- CT combinators --------------------------------------------------- *)

let split ?name fraction early late =
  if fraction < 0.0 || fraction > 1.0 then invalid_arg "Selection.ct: fraction";
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "%s%d+%s" early.name
          (int_of_float (fraction *. 100.0 +. 0.5))
          late.name
  in
  let select rng input =
    let boundary =
      int_of_float (Float.ceil (fraction *. float_of_int input.total_rounds))
    in
    if input.round_index < boundary then early.select rng input
    else late.select rng input
  in
  { name; select }

(* --- GREEDY ------------------------------------------------------------ *)

let greedy_select rng input =
  let c = Array.length input.candidates in
  if c <= 1 || input.budget < 1 then []
  else begin
    let ranked = ranked_in_round input in
    ignore rng;
    (* Clique over the strongest m candidates where choose2 m fits;
       leftover budget pairs the next-ranked candidates with the top
       one. *)
    let m = ref (min c 2) in
    while !m < c && Ints.choose2 (!m + 1) <= input.budget do
      incr m
    done;
    let picked = ref [] in
    let remaining = ref input.budget in
    let asked = Pair_set.create ~expected:input.budget (universe input) in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        picked := norm_pair a b :: !picked;
        decr remaining
      end
    in
    for i = 0 to !m - 1 do
      for j = i + 1 to !m - 1 do
        add ranked.(i) ranked.(j)
      done
    done;
    let next = ref !m in
    while !remaining > 0 && !next < c do
      add ranked.(0) ranked.(!next);
      incr next
    done;
    !picked
  end

let greedy = { name = "GREEDY"; select = greedy_select }

(* --- HILL --------------------------------------------------------------- *)

(* Hill climbing in the spirit of Venetis et al. [23]: the current
   champion (strongest score) is compared against as many challengers
   as the round budget allows, in rank order; leftover budget pairs the
   following candidates with each other. *)

let hill_select rng input =
  let c = Array.length input.candidates in
  if c <= 1 || input.budget < 1 then []
  else begin
    ignore rng;
    let ranked = ranked_in_round input in
    let picked = ref [] in
    let remaining = ref input.budget in
    let asked = Pair_set.create ~expected:input.budget (universe input) in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        picked := norm_pair a b :: !picked;
        decr remaining
      end
    in
    (* champion takes on challengers in rank order *)
    for i = 1 to c - 1 do
      add ranked.(0) ranked.(i)
    done;
    (* leftover: chain the runners-up pairwise (2v3, 4v5, ...) *)
    let i = ref 1 in
    while !remaining > 0 && !i + 1 < c do
      add ranked.(!i) ranked.(!i + 1);
      i := !i + 2
    done;
    !picked
  end

let hill = { name = "HILL"; select = hill_select }

let ct fraction =
  split
    ~name:(Printf.sprintf "CT%d" (int_of_float ((fraction *. 100.0) +. 0.5)))
    fraction spread complete

let sg fraction =
  split
    ~name:(Printf.sprintf "SG%d" (int_of_float ((fraction *. 100.0) +. 0.5)))
    fraction spread greedy

let ct25 = ct 0.25
let ct50 = ct 0.50
let ct75 = ct 0.75

let all = [ tournament; spread; complete; ct25; ct50; ct75; sg 0.25; greedy; hill ]

(* --- validation -------------------------------------------------------- *)

let validate_round input pairs =
  let n = List.length pairs in
  if n > input.budget then Error "over budget"
  else begin
    let cand = Hashtbl.create 64 in
    Array.iter (fun e -> Hashtbl.add cand e ()) input.candidates;
    let seen = Pair_set.create ~expected:n (universe input) in
    let rec loop = function
      | [] -> Ok "valid round"
      | (a, b) :: rest ->
          if a = b then Error "self-comparison"
          else if not (Hashtbl.mem cand a && Hashtbl.mem cand b) then
            Error "non-candidate element"
          else if not (Pair_set.add seen a b) then
            Error "duplicate pair in round"
          else loop rest
    in
    loop pairs
  end
