(* Model test: Event_calendar (flat parallel-array min-heap) against the
   generic Heap with a Float.compare-on-time comparator. The platform
   simulator swapped the latter for the former on its hot path, and the
   rng draw sequence only stays bit-identical if events with equal
   timestamps pop in exactly the same order — so the property below
   compares full (time, a, b) triples, not just times, after every
   operation of a random push/pop/replace interleaving ([replace_min]
   against the model's [replace_top]). Times come from a small
   discrete pool so duplicate timestamps are the common case, not a
   corner case. *)

module Q = QCheck
module EC = Crowdmax_util.Event_calendar

(* Four distinct values: long random op sequences put many entries on
   each, forcing tie-order decisions inside both sift directions. *)
let time_pool = [| 0.0; 1.5; 3.0; 7.25 |]

let ref_heap () =
  Heap.create ~cmp:(fun (t1, _, _) (t2, _, _) -> Float.compare t1 t2)

(* One op per generated int: a quarter of the values pop, a quarter
   replace the root, the rest push; a pushed or replacing triple carries
   a fresh counter value as payload, so any divergence in tie order
   shows up as a payload mismatch. Returns false on the first
   disagreement between the calendar and the model. *)
let run_ops ops =
  let cal = EC.create ~capacity:1 () in
  let heap = ref_heap () in
  let k = ref 0 in
  let ok = ref true in
  let roots_agree () =
    match Heap.peek heap with
    | None -> EC.is_empty cal
    | Some (t, a, b) ->
        (not (EC.is_empty cal))
        && EC.min_time cal = t
        && EC.min_a cal = a
        && EC.min_b cal = b
  in
  let fresh n =
    let t = time_pool.(n mod Array.length time_pool) in
    let a = !k and b = (2 * !k) + 1 in
    incr k;
    (t, a, b)
  in
  List.iter
    (fun n ->
      (if n land 7 >= 6 then begin
         if Heap.is_empty heap then begin
           if not (EC.is_empty cal) then ok := false
         end
         else begin
           let ((t, a, b) as x) = fresh (n lsr 3) in
           EC.replace_min cal ~time:t a b;
           Heap.replace_top heap x
         end
       end
       else if n land 3 = 0 then
         match Heap.pop heap with
         | None -> if not (EC.is_empty cal) then ok := false
         | Some (t, a, b) ->
             if EC.is_empty cal then ok := false
             else begin
               if
                 not
                   (EC.min_time cal = t && EC.min_a cal = a && EC.min_b cal = b)
               then ok := false;
               EC.remove_min cal
             end
       else begin
         let ((t, a, b) as x) = fresh n in
         EC.add cal ~time:t a b;
         Heap.push heap x
       end);
      if EC.length cal <> Heap.length heap then ok := false;
      if not (roots_agree ()) then ok := false)
    ops;
  (* Drain whatever is left: the full pop sequence must match too. *)
  while not (Heap.is_empty heap) do
    let t, a, b = Heap.pop_exn heap in
    if
      EC.is_empty cal
      || not (EC.min_time cal = t && EC.min_a cal = a && EC.min_b cal = b)
    then ok := false
    else EC.remove_min cal
  done;
  if not (EC.is_empty cal) then ok := false;
  !ok

let ops_arb = Q.list_of_size Q.Gen.(int_range 0 400) Q.small_nat

let prop_model =
  Q.Test.make ~count:200
    ~name:"event_calendar: model vs Heap (push/pop/replace, ties, payloads)"
    ops_arb
    run_ops

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_model ]

(* --- unit edges ---------------------------------------------------------- *)

let tc = Alcotest.test_case
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty_raises () =
  let cal = EC.create () in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "min_time empty" true (raises (fun () -> EC.min_time cal));
  check_bool "min_a empty" true (raises (fun () -> EC.min_a cal));
  check_bool "min_b empty" true (raises (fun () -> EC.min_b cal));
  check_bool "remove_min empty" true (raises (fun () -> EC.remove_min cal));
  check_bool "replace_min empty" true
    (raises (fun () -> EC.replace_min cal ~time:1.0 0 0));
  check_bool "nan add" true
    (raises (fun () -> EC.add cal ~time:Float.nan 0 0));
  EC.add cal ~time:1.0 0 0;
  check_bool "nan replace_min" true
    (raises (fun () -> EC.replace_min cal ~time:Float.nan 0 0))

let test_growth_and_order () =
  (* Capacity 1 forces repeated doubling; a linear-congruential walk
     gives a deterministic scrambled insertion order. *)
  let cal = EC.create ~capacity:1 () in
  let n = 500 in
  let x = ref 12345 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0xFFFF;
    EC.add cal ~time:(float_of_int !x) i (-i)
  done;
  check_int "length" n (EC.length cal);
  let last = ref neg_infinity in
  for _ = 1 to n do
    let t = EC.min_time cal in
    check_bool "nondecreasing" true (t >= !last);
    last := t;
    EC.remove_min cal
  done;
  check_bool "drained" true (EC.is_empty cal)

let test_clear () =
  let cal = EC.create () in
  EC.add cal ~time:4.0 1 2;
  EC.add cal ~time:2.0 3 4;
  EC.clear cal;
  check_bool "cleared" true (EC.is_empty cal);
  check_int "length" 0 (EC.length cal);
  EC.add cal ~time:9.0 7 8;
  check_bool "usable after clear" true (EC.min_time cal = 9.0 && EC.min_a cal = 7)

(* Scripted edge cases against the Heap model. [`Push t] pushes a fresh
   payload at key [t], [`Pop] compares and removes the root,
   [`Replace t] compares the root and replaces it by a fresh payload at
   key [t], [`Clear] empties both; every step compares length and root,
   and the tail is drained in order. *)
let scripted ~capacity ops =
  let cal = EC.create ~capacity () in
  let heap = ref (ref_heap ()) in
  let k = ref 0 in
  let same_root () =
    match Heap.peek !heap with
    | None -> EC.is_empty cal
    | Some (t, a, b) ->
        (not (EC.is_empty cal))
        && Float.equal (EC.min_time cal) t
        && EC.min_a cal = a && EC.min_b cal = b
  in
  let pop () =
    check_bool "root agrees" true (same_root ());
    ignore (Heap.pop_exn !heap);
    EC.remove_min cal
  in
  List.iter
    (fun op ->
      (match op with
      | `Push t ->
          EC.add cal ~time:t !k (-(!k));
          Heap.push !heap (t, !k, -(!k));
          incr k
      | `Pop -> pop ()
      | `Replace t ->
          check_bool "root agrees" true (same_root ());
          EC.replace_min cal ~time:t !k (-(!k));
          Heap.replace_top !heap (t, !k, -(!k));
          incr k
      | `Clear ->
          EC.clear cal;
          heap := ref_heap ());
      check_int "length" (Heap.length !heap) (EC.length cal);
      check_bool "root agrees" true (same_root ()))
    ops;
  while not (Heap.is_empty !heap) do
    pop ()
  done;
  check_bool "drained" true (EC.is_empty cal)

let pushes ts = List.map (fun t -> `Push t) ts
let pops n = List.init n (fun _ -> `Pop)
let inf = Float.infinity

let test_capacity_one_and_two () =
  scripted ~capacity:1 [ `Push 1.0; `Pop; `Push 2.0; `Push 1.0; `Pop; `Pop ];
  scripted ~capacity:2
    (pushes [ 3.0; 1.0 ] @ [ `Pop ] @ pushes [ 0.5; 2.0 ] @ pops 2
   @ pushes [ 1.0; 1.0; 1.0 ])

(* The sentinel slot is the one just past the live entries. At full
   capacity there is none until a pop frees one; the next push then
   overwrites it, and the push after that grows the arrays. *)
let test_growth_at_sentinel_boundary () =
  List.iter
    (fun capacity ->
      let fill = List.init capacity (fun i -> float_of_int ((i * 7) mod 5)) in
      scripted ~capacity
        (pushes fill @ [ `Pop ] @ pushes [ 0.0; 4.0; 2.0 ] @ pops 2
       @ pushes [ 1.0; 1.0 ]))
    [ 1; 2; 3; 4; 7; 8 ]

(* +inf keys tie with the sentinel; they must still pop in the model's
   order, after every finite key. *)
let test_infinite_keys () =
  scripted ~capacity:2
    (pushes [ inf; 1.0; inf; 0.0; inf ] @ pops 3 @ pushes [ inf; 2.0 ]);
  scripted ~capacity:4 (pushes [ inf; inf; inf; inf; inf ] @ pops 2)

(* A replace at full capacity grows the arrays for its sentinel slot;
   replaced keys below, equal to and above the others sink or stay. *)
let test_replace_at_capacity () =
  List.iter
    (fun capacity ->
      let fill = List.init capacity (fun i -> float_of_int ((i * 3) mod 4)) in
      scripted ~capacity
        (pushes fill
        @ [ `Replace 2.0; `Replace 0.0; `Replace 3.0; `Replace inf ]
        @ pushes [ 1.0 ]
        @ [ `Pop; `Replace 1.0; `Replace 1.0 ]
        @ pushes [ 1.0 ] @ [ `Replace 1.0 ]))
    [ 1; 2; 3; 4; 7; 8 ]

let test_clear_after_drain () =
  scripted ~capacity:2
    (pushes [ 2.0; 1.0; 3.0 ] @ pops 3 @ [ `Clear ] @ pushes [ 5.0; 4.0 ]
   @ [ `Pop; `Clear; `Clear ] @ pushes [ 1.0; inf; 0.0 ])

let suite =
  [
    ( "event_calendar",
      qcheck_tests
      @ [
          tc "empty and NaN guards raise" `Quick test_empty_raises;
          tc "growth keeps pop order sorted" `Quick test_growth_and_order;
          tc "clear resets and stays usable" `Quick test_clear;
          tc "capacity 1 and 2" `Quick test_capacity_one_and_two;
          tc "growth at the sentinel boundary" `Quick
            test_growth_at_sentinel_boundary;
          tc "+inf keys" `Quick test_infinite_keys;
          tc "replace_min at full capacity" `Quick test_replace_at_capacity;
          tc "clear after drain" `Quick test_clear_after_drain;
        ] );
  ]
