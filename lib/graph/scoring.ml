(* Algorithm-2 scoring with a per-DAG memo: results are cached keyed on
   the DAG's [generation] and [answer_count] (within one generation the
   DAG only changes by recording answers, and answer_count is bumped
   exactly when the graph changes), so COMPLETE / GREEDY / HILL and the
   end-of-run tiebreak recompute the transitive win counts at most once
   per graph state. The cache lives in the DAG's [ext] slot, which
   [Answer_dag.reset] keeps: its buffers only grow, and serve every
   graph a recycled DAG describes. *)

type cache = {
  mutable generation : int; (* DAG generation at computation time *)
  mutable version : int; (* answer_count at computation time; -1 = none *)
  mutable scores : float array; (* energy per element; length >= n *)
  mutable ranked : int array; (* candidates, descending score, ties by id *)
  mutable order : int array; (* scratch: drain order; length >= n *)
  mutable bucket : int array; (* scratch: counting sort; length > n *)
}

type Answer_dag.ext += Cache of cache

let get_cache dag =
  match Answer_dag.ext dag with
  | Cache c -> c
  | _ ->
      let c =
        {
          generation = -1;
          version = -1;
          scores = [||];
          ranked = [||];
          order = [||];
          bucket = [||];
        }
      in
      Answer_dag.set_ext dag (Cache c);
      c

let recompute dag c =
  let n = Answer_dag.size dag in
  if Array.length c.scores < n then begin
    c.scores <- Array.make n 0.0;
    c.order <- Array.make n 0;
    c.bucket <- Array.make (n + 1) 0
  end;
  let energy = c.scores in
  Array.fill energy 0 n (if n = 0 then 0.0 else 1.0 /. float_of_int n);
  if n > 0 then begin
    (* Algorithm 2 processes elements in increasing order of the number
       of comparisons won implicitly or explicitly, ties by id; an
       element with outgoing edges (it lost to someone) forwards its
       energy split evenly among the elements that beat it. Processing
       in this order guarantees every element is drained before
       anything it feeds. Win counts lie in [0, n), so the order is a
       counting sort over them, stable in id. *)
    let won = Answer_dag.transitive_win_counts dag in
    let order = c.order and bucket = c.bucket in
    Array.fill bucket 0 (n + 1) 0;
    for e = 0 to n - 1 do
      bucket.(won.(e) + 1) <- bucket.(won.(e) + 1) + 1
    done;
    for v = 1 to n do
      bucket.(v) <- bucket.(v) + bucket.(v - 1)
    done;
    for e = 0 to n - 1 do
      let v = won.(e) in
      order.(bucket.(v)) <- e;
      bucket.(v) <- bucket.(v) + 1
    done;
    for i = 0 to n - 1 do
      let e = order.(i) in
      if energy.(e) > 0.0 then begin
        let beaters = Answer_dag.losses dag e in
        if beaters > 0 then begin
          let share = energy.(e) /. float_of_int beaters in
          Answer_dag.iter_lost_to dag e (fun w ->
              energy.(w) <- energy.(w) +. share);
          energy.(e) <- 0.0
        end
      end
    done
  end;
  let ranked = Answer_dag.candidates dag in
  Array.sort
    (fun a b ->
      match Float.compare energy.(b) energy.(a) with
      | 0 -> Int.compare a b
      | cmp -> cmp)
    ranked;
  c.ranked <- ranked;
  c.generation <- Answer_dag.generation dag;
  c.version <- Answer_dag.answer_count dag

let cached dag =
  let c = get_cache dag in
  if
    c.generation <> Answer_dag.generation dag
    || c.version <> Answer_dag.answer_count dag
  then recompute dag c;
  c

let scores_array dag = Array.sub (cached dag).scores 0 (Answer_dag.size dag)

let scores dag =
  let energy = (cached dag).scores in
  List.map (fun e -> (e, energy.(e))) (Answer_dag.remaining_candidates dag)

let ranked_candidates dag = Array.to_list (cached dag).ranked
let ranked_array dag = Array.copy (cached dag).ranked
