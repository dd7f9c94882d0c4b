(* The list-and-closure [Rwl.resolve] as it was before the array
   kernel: hashtable or per-call-array Tarjan over the voted edge list,
   one [vote_is_a] closure call per raw vote. Kept
   as the differential reference for the kernel, which must return the
   same outcome, raise the same [Invalid_argument] under the same
   conditions, and leave the rng in the same state. *)

open Crowdmax_util
open Crowdmax_crowd
open Rwl

(* Tarjan's strongly connected components over the voted answer digraph,
   restricted to the elements that appear in this round's questions. *)
let scc_of ~nodes ~succ =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let comp = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_count = ref 0 in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          let lv = Hashtbl.find lowlink v and lw = Hashtbl.find lowlink w in
          if lw < lv then Hashtbl.replace lowlink v lw
        end
        else if Hashtbl.mem on_stack w then begin
          let lv = Hashtbl.find lowlink v and iw = Hashtbl.find index w in
          if iw < lv then Hashtbl.replace lowlink v iw
        end)
      (succ v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec popall () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            Hashtbl.replace comp w !comp_count;
            if w <> v then popall ()
      in
      popall ();
      incr comp_count
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  comp

(* Cycle resolution shared by both front ends: given one voted
   (winner, loser) per question, re-orient the edges inside each
   strongly connected component by the component-local win/loss score so
   the result is acyclic. Returns the final answers and how many edges
   were flipped.

   Two interchangeable implementations. The output is a pure function
   of the SCC *partition* and the within-component scores — both
   canonical properties of the edge set, independent of traversal or
   component numbering — so any correct SCC algorithm yields identical
   answers. [break_cycles_flat] runs Tarjan iteratively over flat
   arrays indexed by element id (the resolve hot path: ids are dense
   small naturals); [break_cycles_tbl] is the general hashtable version
   kept for sparse or negative ids. *)
let break_cycles_tbl voted =
  let succ_tbl = Hashtbl.create 64 in
  List.iter
    (fun (w, l) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt succ_tbl w) in
      Hashtbl.replace succ_tbl w (l :: cur))
    voted;
  (* Visit nodes in sorted order: SCC component numbering then depends
     only on the voted edge set, never on hash-table iteration order
     (lint R2). Only component *equality* is consumed downstream, but a
     deterministic visit order keeps replicated runs bit-identical. *)
  let nodes =
    List.sort_uniq Int.compare
      (List.concat_map (fun (w, l) -> [ w; l ]) voted)
  in
  let succ v = Option.value ~default:[] (Hashtbl.find_opt succ_tbl v) in
  let comp = scc_of ~nodes ~succ in
  let score = Hashtbl.create 64 in
  List.iter
    (fun (w, l) ->
      if Hashtbl.find comp w = Hashtbl.find comp l then begin
        Hashtbl.replace score w (1 + Option.value ~default:0 (Hashtbl.find_opt score w));
        Hashtbl.replace score l (Option.value ~default:0 (Hashtbl.find_opt score l) - 1)
      end)
    voted;
  let flipped = ref 0 in
  let final =
    List.map
      (fun (w, l) ->
        if Hashtbl.find comp w <> Hashtbl.find comp l then (w, l)
        else begin
          let sw = Option.value ~default:0 (Hashtbl.find_opt score w) in
          let sl = Option.value ~default:0 (Hashtbl.find_opt score l) in
          (* Lexicographic (score, id): explicit [Int.compare], not a
             polymorphic [>] on a boxed tuple (lint R1). *)
          let c = Int.compare sw sl in
          if c > 0 || (c = 0 && Int.compare w l > 0) then (w, l)
          else begin
            incr flipped;
            (l, w)
          end
        end)
      voted
  in
  (final, !flipped)

(* Flat-array path: CSR successor lists plus an iterative Tarjan, no
   hashing, no per-node allocation. Visits roots in ascending id order
   like the sorted-node hashtable path; only component equality is
   consumed downstream, so the differing component numbering is
   unobservable. *)
let break_cycles_flat voted ~max_id ~n_edges =
  let n = max_id + 1 in
  let ws = Array.make n_edges 0 in
  let ls = Array.make n_edges 0 in
  List.iteri
    (fun i (w, l) ->
      ws.(i) <- w;
      ls.(i) <- l)
    voted;
  let present = Array.make n false in
  (* CSR: [start.(v) .. start.(v+1) - 1] indexes v's successors. *)
  let start = Array.make (n + 1) 0 in
  for i = 0 to n_edges - 1 do
    let w = ws.(i) in
    start.(w + 1) <- start.(w + 1) + 1;
    present.(w) <- true;
    present.(ls.(i)) <- true
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.make n 0 in
  Array.blit start 0 fill 0 n;
  let adj = Array.make n_edges 0 in
  for i = 0 to n_edges - 1 do
    let w = ws.(i) in
    adj.(fill.(w)) <- ls.(i);
    fill.(w) <- fill.(w) + 1
  done;
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let counter = ref 0 in
  let comp_count = ref 0 in
  (* Explicit DFS frames: [dfs_v] the node, [dfs_i] its next unexplored
     CSR cursor. Depth is bounded by the number of distinct nodes <= n. *)
  let dfs_v = Array.make n 0 in
  let dfs_i = Array.make n 0 in
  for root = 0 to n - 1 do
    if present.(root) && index.(root) < 0 then begin
      let top = ref 0 in
      dfs_v.(0) <- root;
      dfs_i.(0) <- start.(root);
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack.(!sp) <- root;
      incr sp;
      on_stack.(root) <- true;
      while !top >= 0 do
        let v = dfs_v.(!top) in
        let i = dfs_i.(!top) in
        if i < start.(v + 1) then begin
          dfs_i.(!top) <- i + 1;
          let w = adj.(i) in
          if index.(w) < 0 then begin
            index.(w) <- !counter;
            lowlink.(w) <- !counter;
            incr counter;
            stack.(!sp) <- w;
            incr sp;
            on_stack.(w) <- true;
            incr top;
            dfs_v.(!top) <- w;
            dfs_i.(!top) <- start.(w)
          end
          else if on_stack.(w) && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let continue_ = ref true in
            while !continue_ do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !comp_count;
              if w = v then continue_ := false
            done;
            incr comp_count
          end;
          decr top;
          if !top >= 0 then begin
            let parent = dfs_v.(!top) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  let score = Array.make n 0 in
  for i = 0 to n_edges - 1 do
    let w = ws.(i) and l = ls.(i) in
    if comp.(w) = comp.(l) then begin
      score.(w) <- score.(w) + 1;
      score.(l) <- score.(l) - 1
    end
  done;
  let flipped = ref 0 in
  let final =
    List.map
      (fun ((w, l) as edge) ->
        if comp.(w) <> comp.(l) then edge
        else begin
          let c = Int.compare score.(w) score.(l) in
          if c > 0 || (c = 0 && Int.compare w l > 0) then edge
          else begin
            incr flipped;
            (l, w)
          end
        end)
      voted
  in
  (final, !flipped)

let break_cycles voted =
  match voted with
  | [] -> ([], 0)
  | _ ->
      let min_id = ref max_int in
      let max_id = ref min_int in
      let n_edges = ref 0 in
      List.iter
        (fun (w, l) ->
          incr n_edges;
          if w < !min_id then min_id := w;
          if l < !min_id then min_id := l;
          if w > !max_id then max_id := w;
          if l > !max_id then max_id := l)
        voted;
      (* The flat path allocates O(max_id) arrays: take it for the dense
         nonnegative ids the engine produces, fall back to hashing for
         negative or very sparse id spaces. The choice is a pure
         function of the edge set, so replicated runs stay
         deterministic. *)
      if !min_id >= 0 && !max_id <= (8 * !n_edges) + 1024 then
        break_cycles_flat voted ~max_id:!max_id ~n_edges:!n_edges
      else break_cycles_tbl voted

let outcome_of ~truth ~raw_questions ~vote_flips ~unanswered voted =
  let final, flipped = break_cycles voted in
  let correct =
    List.fold_left
      (fun acc (w, l) -> if Ground_truth.better truth w l = w then acc + 1 else acc)
      0 final
  in
  let n_answered = List.length final in
  {
    answers = final;
    unanswered;
    raw_questions;
    vote_flips;
    cycle_edges_flipped = flipped;
    accuracy =
      (if n_answered = 0 then 1.0
       else float_of_int correct /. float_of_int n_answered);
  }

let check_questions name questions =
  List.iter
    (fun (a, b) -> if a = b then invalid_arg (name ^ ": self-comparison"))
    questions

(* Validate an optional per-question received-vote vector (deadline
   support): when absent, every question got its full [votes]. *)
let check_received name votes questions = function
  | None -> fun _ -> votes
  | Some received ->
      if Array.length received <> List.length questions then
        invalid_arg (name ^ ": votes_received length mismatch");
      Array.iter
        (fun v ->
          if v < 0 || v > votes then
            invalid_arg (name ^ ": votes_received out of [0, votes]"))
        received;
      fun qi -> received.(qi)

(* An exact split: award the question by a fair draw rather than the
   historical (biased) award-to-[b]. Only consulted on actual ties, so
   odd full-vote configurations never touch the rng here. *)
let fair_tie rng a b = if Rng.bool rng then a else b

let resolve ?votes_received rng cfg ~truth questions =
  if cfg.votes < 1 then invalid_arg "Rwl.resolve: votes < 1";
  check_questions "Rwl.resolve" questions;
  let received = check_received "Rwl.resolve" cfg.votes questions votes_received in
  (* One raw vote, specialized by error model: the model is fixed for
     the whole call, so the [Uniform] clamp (and [Perfect]'s no-draw
     short-circuit — [Rng.bernoulli] at p <= 0 never draws) hoists out
     of the per-answer path. Draw-for-draw identical to
     [Worker.answer ... = a]. *)
  let vote_is_a =
    match cfg.error with
    | Worker.Perfect -> fun a b -> Ground_truth.better truth a b = a
    | Worker.Uniform p ->
        let p = Float.max 0.0 (Float.min 1.0 p) in
        fun a b ->
          let truthful = Ground_truth.better truth a b = a in
          if Rng.bernoulli rng p then not truthful else truthful
    | Worker.Distance_sensitive _ ->
        fun a b -> Worker.answer rng cfg.error truth a b = a
  in
  (* Repetition + majority vote per question. *)
  let vote_flips = ref 0 in
  let unanswered = ref [] in
  let voted = ref [] in
  List.iteri
    (fun qi (a, b) ->
      let v = received qi in
      if v = 0 then unanswered := (a, b) :: !unanswered
      else begin
        let wins_a = ref 0 in
        for _ = 1 to v do
          if vote_is_a a b then incr wins_a
        done;
        let winner =
          if 2 * !wins_a > v then a
          else if 2 * !wins_a < v then b
          else fair_tie rng a b
        in
        if winner <> Ground_truth.better truth a b then incr vote_flips;
        let loser = if winner = a then b else a in
        voted := (winner, loser) :: !voted
      end)
    questions;
  outcome_of ~truth
    ~raw_questions:(cfg.votes * List.length questions)
    ~vote_flips:!vote_flips
    ~unanswered:(List.rev !unanswered)
    (List.rev !voted)
