(* Adjacency is kept twice: a hash table per vertex for O(1) membership,
   and an insertion-ordered list per vertex that [neighbors] / [edges]
   read. Iterating the hash tables would tie observable order to
   unspecified bucket layout (lint R2); the lists depend only on the
   order edges were added. *)
type t = {
  n : int;
  adj : (int, unit) Hashtbl.t array;
  adj_list : int list array; (* most recently added first *)
  mutable edge_count : int;
}

let create n =
  if n < 0 then invalid_arg "Undirected.create: negative size";
  {
    n;
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    adj_list = Array.make n [];
    edge_count = 0;
  }

let size t = t.n
let edge_count t = t.edge_count

let check t x = if x < 0 || x >= t.n then invalid_arg "Undirected: out-of-range node"

let has_edge t a b =
  check t a;
  check t b;
  Hashtbl.mem t.adj.(a) b

let add_edge t a b =
  check t a;
  check t b;
  if a = b then invalid_arg "Undirected.add_edge: self-loop";
  if not (Hashtbl.mem t.adj.(a) b) then begin
    Hashtbl.replace t.adj.(a) b ();
    Hashtbl.replace t.adj.(b) a ();
    t.adj_list.(a) <- b :: t.adj_list.(a);
    t.adj_list.(b) <- a :: t.adj_list.(b);
    t.edge_count <- t.edge_count + 1
  end

let of_edges n es =
  let t = create n in
  List.iter (fun (a, b) -> add_edge t a b) es;
  t

let edges t =
  let acc = ref [] in
  for a = t.n - 1 downto 0 do
    List.iter (fun b -> if a < b then acc := (a, b) :: !acc) t.adj_list.(a)
  done;
  !acc

let neighbors t x =
  check t x;
  t.adj_list.(x)

let degree t x =
  check t x;
  Hashtbl.length t.adj.(x)

let degrees t = Array.init t.n (fun i -> Hashtbl.length t.adj.(i))

let is_independent t nodes =
  let rec loop = function
    | [] -> true
    | x :: rest -> (not (List.exists (has_edge t x) rest)) && loop rest
  in
  loop nodes

let is_near_regular t =
  if t.n = 0 then true
  else begin
    let ds = degrees t in
    let lo = Array.fold_left min ds.(0) ds in
    let hi = Array.fold_left max ds.(0) ds in
    hi - lo <= 1
  end

let orient_by_permutation t (rank : int array) =
  if Array.length rank <> t.n then
    invalid_arg "Undirected.orient_by_permutation: rank size mismatch";
  let dag = Answer_dag.create t.n in
  List.iter
    (fun (a, b) ->
      if rank.(a) > rank.(b) then Answer_dag.add_answer dag ~winner:a ~loser:b
      else Answer_dag.add_answer dag ~winner:b ~loser:a)
    (edges t);
  dag

let remaining_after t rank =
  let dag = orient_by_permutation t rank in
  Answer_dag.remaining_candidates dag
