(* Branch and bound for maximum independent set.

   At each step pick the highest-degree remaining vertex v; branch on
   excluding v (remove it) or including v (remove v and its neighbours).
   The [best] bound prunes branches that cannot beat the incumbent even
   if every remaining vertex were taken. *)

let exact g =
  let n = Undirected.size g in
  let alive = Array.make n true in
  let alive_count = ref n in
  let best = ref [] in
  let best_size = ref 0 in
  let pick_pivot () =
    let pivot = ref (-1) in
    let pivot_deg = ref (-1) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let d =
          List.fold_left
            (fun acc u -> if alive.(u) then acc + 1 else acc)
            0 (Undirected.neighbors g v)
        in
        if d > !pivot_deg then begin
          pivot := v;
          pivot_deg := d
        end
      end
    done;
    (!pivot, !pivot_deg)
  in
  let rec search chosen chosen_size =
    if chosen_size + !alive_count <= !best_size then ()
    else begin
      let pivot, pivot_deg = pick_pivot () in
      if pivot < 0 then begin
        if chosen_size > !best_size then begin
          best := chosen;
          best_size := chosen_size
        end
      end
      else if pivot_deg = 0 then begin
        (* Remaining graph is edgeless: take everything alive. *)
        let extras = ref [] in
        let extra_count = ref 0 in
        for v = 0 to n - 1 do
          if alive.(v) then begin
            extras := v :: !extras;
            incr extra_count
          end
        done;
        if chosen_size + !extra_count > !best_size then begin
          best := !extras @ chosen;
          best_size := chosen_size + !extra_count
        end
      end
      else begin
        (* Branch 1: include pivot — remove it and its alive neighbours. *)
        let removed = ref [ pivot ] in
        alive.(pivot) <- false;
        decr alive_count;
        List.iter
          (fun u ->
            if alive.(u) then begin
              alive.(u) <- false;
              decr alive_count;
              removed := u :: !removed
            end)
          (Undirected.neighbors g pivot);
        search (pivot :: chosen) (chosen_size + 1);
        List.iter
          (fun u ->
            alive.(u) <- true;
            incr alive_count)
          !removed;
        (* Branch 2: exclude pivot. *)
        alive.(pivot) <- false;
        decr alive_count;
        search chosen chosen_size;
        alive.(pivot) <- true;
        incr alive_count
      end
    end
  in
  search [] 0;
  List.sort Int.compare !best

let greedy g =
  let n = Undirected.size g in
  let alive = Array.make n true in
  let result = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let pick = ref (-1) in
    let pick_deg = ref max_int in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let d =
          List.fold_left
            (fun acc u -> if alive.(u) then acc + 1 else acc)
            0 (Undirected.neighbors g v)
        in
        if d < !pick_deg then begin
          pick := v;
          pick_deg := d
        end
      end
    done;
    if !pick < 0 then continue_ := false
    else begin
      result := !pick :: !result;
      alive.(!pick) <- false;
      List.iter (fun u -> alive.(u) <- false) (Undirected.neighbors g !pick)
    end
  done;
  List.sort Int.compare !result

let max_rc_brute g =
  let n = Undirected.size g in
  if n > 9 then invalid_arg "Max_ind.max_rc_brute: too many nodes";
  let best = ref [] in
  let perm = Array.init n (fun i -> i) in
  (* Heap's algorithm over permutations; each permutation is a candidate
     ground truth and induces one acyclic orientation. *)
  let consider () =
    let rank = Array.make n 0 in
    Array.iteri (fun pos v -> rank.(v) <- pos) perm;
    let rc = Undirected.remaining_after g rank in
    if List.length rc > List.length !best then best := rc
  in
  let rec permute k =
    if k = 1 then consider ()
    else
      for i = 0 to k - 1 do
        permute (k - 1);
        let j = if k mod 2 = 0 then i else 0 in
        let tmp = perm.(j) in
        perm.(j) <- perm.(k - 1);
        perm.(k - 1) <- tmp
      done
  in
  if n = 0 then [] else begin
    permute n;
    List.sort Int.compare !best
  end
