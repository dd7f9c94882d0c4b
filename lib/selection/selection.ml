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
  fill : Rng.t -> round_input -> Pairs.t -> unit;
  select : Rng.t -> round_input -> (int * int) list;
}

let list_view fill rng input =
  let out = Pairs.create () in
  fill rng input out;
  Pairs.to_list out

let make name fill = { name; fill; select = list_view fill }

(* Each built-in's pinned pair order is newest first, each pair
   normalized to (min, max) except the tournament's cliques: SPREAD,
   COMPLETE, GREEDY and HILL push in generation order and reverse their
   segment of the buffer at the end. *)
let push_norm out a b =
  if a < b then Pairs.push out a b else Pairs.push out b a
[@@alloc_free]

(* Per-domain selector scratch: a candidate pool the tournament and
   SPREAD shuffle in place, and the within-round pair set. Both only
   grow. A fill uses them only between its entry and its return and
   calls no other selector meanwhile, so one copy per domain serves
   every selector. *)
type scratch = { mutable pool : int array; asked : Pair_set.t }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { pool = [||]; asked = Pair_set.create ~expected:0 0 })

let pool_of s c =
  if Array.length s.pool < c then
    s.pool <- Array.make (max c (2 * Array.length s.pool)) 0;
  s.pool

(* Universe bound for this round's Pair_set: the history covers every
   engine-produced candidate; hand-built inputs may exceed it. *)
let universe input =
  Array.fold_left
    (fun m e -> if e >= m then e + 1 else m)
    (Dag.size input.history) input.candidates

(* The scratch's pair set, emptied over this round's universe. *)
let asked_set s input ~expected =
  Pair_set.reset ~expected s.asked (universe input);
  s.asked

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

(* The cliques are index ranges of one shuffled pool of the c
   candidates: with [small = c / g] and [n_big = c mod g], clique [k]
   starts at [k * small + min k n_big] and the first [n_big] cliques
   hold one extra element ([Tournament.sizes]'s layout). *)
let[@inline] clique_start ~small ~n_big k =
  (k * small) + if k < n_big then k else n_big
[@@alloc_free]

let[@inline] clique_size ~small ~n_big k =
  if k < n_big then small + 1 else small
[@@alloc_free]

(* Every within-clique pair [(pool.(i), pool.(j))], [i < j], in the
   tournament's pinned order: the reverse of clique by clique, [i] then
   [j] ascending. The loops run that generation order backwards, so no
   reversal pass is needed. *)
let push_cliques pool ~c ~g out =
  let small = c / g and n_big = c mod g in
  for k = g - 1 downto 0 do
    let lo = clique_start ~small ~n_big k in
    let hi = lo + clique_size ~small ~n_big k in
    for i = hi - 2 downto lo do
      let a = Array.unsafe_get pool i in
      for j = hi - 1 downto i + 1 do
        Pairs.push out a (Array.unsafe_get pool j)
      done
    done
  done
[@@alloc_free]

(* Random pairs between elements of different cliques, avoiding pairs
   already drawn this round; gives up after enough failed draws, which
   only happens when few distinct cross pairs remain. Disjoint cliques
   never share a pair with a cross pair, so [asked] holds the extras
   only. Pushed in draw order, then reversed: the pinned order of the
   extras, like the cliques', is newest first. *)
let push_cross_extras rng pool ~c ~g asked leftover out =
  let small = c / g and n_big = c mod g in
  let base = Pairs.length out in
  let remaining = ref leftover and attempts = ref 0 in
  let max_attempts = 50 * (leftover + 1) in
  while !remaining > 0 && !attempts < max_attempts do
    incr attempts;
    let gi = Rng.int rng g in
    let gj = Rng.int rng g in
    if gi <> gj then begin
      let a =
        pool.(clique_start ~small ~n_big gi
              + Rng.int rng (clique_size ~small ~n_big gi))
      in
      let b =
        pool.(clique_start ~small ~n_big gj
              + Rng.int rng (clique_size ~small ~n_big gj))
      in
      if Pair_set.add asked a b then begin
        push_norm out a b;
        decr remaining
      end
    end
  done;
  Pairs.reverse out base (Pairs.length out)
[@@alloc_free]

let tournament_fill rng input out =
  let c = Array.length input.candidates in
  if c > 1 && input.budget >= 1 then
    match T.min_groups_within_budget c input.budget with
    | None -> ()
    | Some g ->
        let s = Domain.DLS.get scratch_key in
        let pool = pool_of s c in
        Array.blit input.candidates 0 pool 0 c;
        Rng.shuffle_prefix rng pool c;
        push_cliques pool ~c ~g out;
        let leftover = input.budget - T.questions c g in
        (* No extras are possible when the cliques fill the budget or
           there is a single clique (no cross pair); the extras loop
           would draw nothing either way. *)
        if leftover > 0 && g >= 2 then
          push_cross_extras rng pool ~c ~g
            (asked_set s input ~expected:leftover)
            leftover out

let tournament = make "Tournament" tournament_fill

(* --- SPREAD ---------------------------------------------------------- *)

let spread_fill rng input out =
  let c = Array.length input.candidates in
  if c > 1 && input.budget >= 1 then begin
    let s = Domain.DLS.get scratch_key in
    let asked = asked_set s input ~expected:input.budget in
    let order = pool_of s c in
    let base = Pairs.length out in
    let remaining = ref input.budget in
    let stalled = ref false in
    (* Stack random near-perfect matchings: each pass pairs up a fresh
       shuffle of the candidates, adding degree one per element, so the
       question counts stay as even as possible. *)
    while !remaining > 0 && not !stalled do
      Array.blit input.candidates 0 order 0 c;
      Rng.shuffle_prefix rng order c;
      let added_this_pass = ref 0 in
      let i = ref 0 in
      while !i + 1 < c && !remaining > 0 do
        if Pair_set.add asked order.(!i) order.(!i + 1) then begin
          push_norm out order.(!i) order.(!i + 1);
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
                 push_norm out x y;
                 decr remaining;
                 found := true;
                 raise Exit
               end
             done
           done
         with Exit -> ());
        if not !found then stalled := true
    done;
    Pairs.reverse out base (Pairs.length out)
  end

let spread = make "SPREAD" spread_fill

(* --- COMPLETE --------------------------------------------------------- *)

let complete_fill rng input out =
  let c = Array.length input.candidates in
  if c > 1 && input.budget >= 1 then begin
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
    let asked =
      asked_set (Domain.DLS.get scratch_key) input ~expected:input.budget
    in
    let base = Pairs.length out in
    let remaining = ref input.budget in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        push_norm out a b;
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
    Pairs.reverse out base (Pairs.length out)
  end

let complete = make "COMPLETE" complete_fill

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
  let fill rng input out =
    let boundary =
      int_of_float (Float.ceil (fraction *. float_of_int input.total_rounds))
    in
    if input.round_index < boundary then early.fill rng input out
    else late.fill rng input out
  in
  make name fill

(* --- GREEDY ------------------------------------------------------------ *)

let greedy_fill rng input out =
  let c = Array.length input.candidates in
  if c > 1 && input.budget >= 1 then begin
    let ranked = ranked_in_round input in
    ignore rng;
    (* Clique over the strongest m candidates where choose2 m fits;
       leftover budget pairs the next-ranked candidates with the top
       one. *)
    let m = ref (min c 2) in
    while !m < c && Ints.choose2 (!m + 1) <= input.budget do
      incr m
    done;
    let base = Pairs.length out in
    let remaining = ref input.budget in
    let asked =
      asked_set (Domain.DLS.get scratch_key) input ~expected:input.budget
    in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        push_norm out a b;
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
    Pairs.reverse out base (Pairs.length out)
  end

let greedy = make "GREEDY" greedy_fill

(* --- HILL --------------------------------------------------------------- *)

(* Hill climbing in the spirit of Venetis et al. [23]: the current
   champion (strongest score) is compared against as many challengers
   as the round budget allows, in rank order; leftover budget pairs the
   following candidates with each other. *)

let hill_fill rng input out =
  let c = Array.length input.candidates in
  if c > 1 && input.budget >= 1 then begin
    ignore rng;
    let ranked = ranked_in_round input in
    let base = Pairs.length out in
    let remaining = ref input.budget in
    let asked =
      asked_set (Domain.DLS.get scratch_key) input ~expected:input.budget
    in
    let add a b =
      if !remaining > 0 && Pair_set.add asked a b then begin
        push_norm out a b;
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
    Pairs.reverse out base (Pairs.length out)
  end

let hill = make "HILL" hill_fill

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
