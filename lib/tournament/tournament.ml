open Crowdmax_util

let check c_prev c_next =
  if c_next < 1 || c_next > c_prev then
    invalid_arg "Tournament: need 1 <= c_next <= c_prev"
[@@alloc_free]

let questions c_prev c_next =
  check c_prev c_next;
  let big = Ints.ceil_div c_prev c_next in
  let small = c_prev / c_next in
  let n_big = c_prev mod c_next in
  (Ints.choose2 big * n_big) + (Ints.choose2 small * (c_next - n_big))
[@@alloc_free]

let sizes c_prev c_next =
  check c_prev c_next;
  let big = Ints.ceil_div c_prev c_next in
  let small = c_prev / c_next in
  let n_big = c_prev mod c_next in
  List.init c_next (fun k -> if k < n_big then big else small)

let min_groups_within_budget c budget =
  if c <= 1 then (if budget >= 0 then Some c else None)
  else if questions c (c - 1) > budget then None
  else begin
    (* questions c g is non-increasing in g, so the least fitting g is
       found by bisection: questions c lo > budget >= questions c hi
       (lo = 0 standing for "no group count"). Each probe costs three
       divisions; a scan up from g = 1 made the selector pay ~c/4 probes
       per round. *)
    let lo = ref 0 and hi = ref (c - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if questions c mid <= budget then hi := mid else lo := mid
    done;
    Some !hi
  end

type assignment = { groups : int array array }

let partition elements c_next =
  let szs = sizes (Array.length elements) c_next in
  let pos = ref 0 in
  let groups =
    List.map
      (fun sz ->
        let g = Array.sub elements !pos sz in
        pos := !pos + sz;
        g)
      szs
  in
  { groups = Array.of_list groups }

let assign rng elements c_next =
  let shuffled = Rng.shuffle rng elements in
  partition shuffled c_next

let assign_seeded elements c_next =
  let n = Array.length elements in
  let szs = Array.of_list (sizes n c_next) in
  let groups = Array.map (fun sz -> Array.make sz (-1)) szs in
  let fill = Array.make c_next 0 in
  let k = ref 0 in
  Array.iter
    (fun e ->
      (* Deal to the next clique that still has room. *)
      let rec next_slot () =
        if fill.(!k) >= szs.(!k) then begin
          k := (!k + 1) mod c_next;
          next_slot ()
        end
      in
      next_slot ();
      groups.(!k).(fill.(!k)) <- e;
      fill.(!k) <- fill.(!k) + 1;
      k := (!k + 1) mod c_next)
    elements;
  { groups }

let edges_of_assignment { groups } =
  let acc = ref [] in
  Array.iter
    (fun g ->
      let m = Array.length g in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          acc := (g.(i), g.(j)) :: !acc
        done
      done)
    groups;
  !acc

let questions_of_assignment { groups } =
  Array.fold_left (fun acc g -> acc + Ints.choose2 (Array.length g)) 0 groups

let to_undirected n assignment =
  Crowdmax_graph.Undirected.of_edges n (edges_of_assignment assignment)
