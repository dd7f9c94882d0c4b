open Crowdmax_util

let check = Alcotest.check
let tc = Alcotest.test_case

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "streams diverge" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 5 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  check Alcotest.int64 "copy continues the same stream" xa xb;
  (* advancing the copy must not affect the original *)
  let _ = Rng.bits64 b in
  let c = Rng.copy a in
  check Alcotest.int64 "original unaffected" (Rng.bits64 a) (Rng.bits64 c)

let test_split_diverges () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "split streams differ" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create 77 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check Alcotest.bool "in [0,10)" true (x >= 0 && x < 10)
  done

let test_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_in_inclusive () =
  let rng = Rng.create 3 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let x = Rng.int_in rng 4 6 in
    check Alcotest.bool "in [4,6]" true (x >= 4 && x <= 6);
    if x = 4 then seen_lo := true;
    if x = 6 then seen_hi := true
  done;
  check Alcotest.bool "endpoints reachable" true (!seen_lo && !seen_hi)

(* Rejection-sampling invariants: accept_max + 1 is an exact multiple of
   the bound (so every accepted draw maps to a uniform residue), and the
   rejected tail [accept_max + 1, 2^63) is shorter than one bound's worth
   of values. Power-of-two bounds must never reject. *)
let test_accept_max_invariants () =
  List.iter
    (fun bound ->
      let am = Rng.accept_max bound in
      let b = Int64.of_int bound in
      check Alcotest.int64
        (Printf.sprintf "accept_max+1 multiple of %d" bound)
        0L
        (Int64.rem (Int64.add am 1L) b);
      check Alcotest.bool
        (Printf.sprintf "tail shorter than bound for %d" bound)
        true
        (Int64.compare (Int64.sub Int64.max_int am) b < 0))
    [ 1; 2; 3; 7; 10; 100; 1 lsl 20; (1 lsl 20) + 1; max_int ]

let test_accept_max_power_of_two_no_rejection () =
  List.iter
    (fun bound ->
      check Alcotest.int64
        (Printf.sprintf "2^k bound %d accepts everything" bound)
        Int64.max_int (Rng.accept_max bound))
    [ 1; 2; 4; 1 lsl 10; 1 lsl 30; 1 lsl 61 ]

let test_accept_max_rejects_bad_bound () =
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.accept_max: bound must be positive") (fun () ->
      ignore (Rng.accept_max 0))

(* The rejection rule [Rng.int] used before its fast accept: every draw
   is tested against [accept_max bound]. Kept as the differential
   reference for the current rule, which must accept and reject exactly
   the same draws. *)
let int_reference t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  let limit = Rng.accept_max bound in
  let r = ref (-1) in
  while !r < 0 do
    let x = Int64.shift_right_logical (Rng.bits64 t) 1 in
    if Int64.compare x limit <= 0 then r := Int64.to_int (Int64.rem x b)
  done;
  !r

(* Bounds across the whole range: small, powers of two, arbitrary, the
   top of the int range (max_int = 2^62 - 1), and the band just above
   2^63 / 3 where about a third of all draws are rejected — there the
   exact test decides most draws instead of the fast accept. *)
let bound_gen =
  let open QCheck.Gen in
  let third = Int64.to_int (Int64.div Int64.max_int 3L) in
  oneof
    [
      int_range 1 1000;
      map (fun k -> 1 lsl k) (int_range 0 61);
      int_range 1 max_int;
      map (fun d -> max_int - d) (int_range 0 1000);
      map (fun d -> third + d) (int_range (-1000) 1000);
    ]

let prop_int_matches_reference =
  QCheck.Test.make ~name:"Rng.int = accept_max-only rule (values, draws)"
    ~count:500
    (QCheck.make
       ~print:(fun (seed, bound) -> Printf.sprintf "seed=%d bound=%d" seed bound)
       QCheck.Gen.(pair (int_range 0 1_000_000) bound_gen))
    (fun (seed, bound) ->
      let base = Rng.create seed in
      let a = Rng.copy base and b = Rng.copy base in
      let ok = ref true in
      for _ = 1 to 64 do
        if Rng.int a bound <> int_reference b bound then ok := false
      done;
      !ok && Rng.draws_since ~base a = Rng.draws_since ~base b)

let test_int_covers_range () =
  let rng = Rng.create 9 in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let x = Rng.int rng 8 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool (Printf.sprintf "bucket %d roughly uniform" i) true
        (c > 700 && c < 1300))
    counts

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    check Alcotest.bool "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Rng.bernoulli rng 0.0);
    check Alcotest.bool "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10000.0 in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_exponential_mean () =
  let rng = Rng.create 23 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng 5.0 in
    check Alcotest.bool "positive" true (x >= 0.0);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  check Alcotest.bool "mean near 5" true (mean > 4.6 && mean < 5.4)

let test_exponential_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Rng.exponential: mean must be positive") (fun () ->
      ignore (Rng.exponential rng 0.0))

let test_gaussian_moments () =
  let rng = Rng.create 29 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:10.0 ~sigma:2.0) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  check Alcotest.bool "mean near 10" true (mean > 9.9 && mean < 10.1);
  check Alcotest.bool "sd near 2" true (sd > 1.9 && sd < 2.1)

let test_lognormal_positive () =
  let rng = Rng.create 31 in
  for _ = 1 to 1000 do
    check Alcotest.bool "positive" true (Rng.lognormal rng ~mu:1.0 ~sigma:0.5 > 0.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 37 in
  let a = Array.init 50 (fun i -> i) in
  let b = Rng.shuffle rng a in
  check Alcotest.(array int) "original untouched" (Array.init 50 (fun i -> i)) a;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" a sorted

let test_permutation_valid () =
  let rng = Rng.create 41 in
  for n = 0 to 20 do
    let p = Rng.permutation rng n in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    check Alcotest.(array int) "permutation" (Array.init n (fun i -> i)) sorted
  done

let test_permutation_varies () =
  let rng = Rng.create 43 in
  let p1 = Rng.permutation rng 30 in
  let p2 = Rng.permutation rng 30 in
  check Alcotest.bool "two draws differ" true (p1 <> p2)

let test_sample_without_replacement () =
  let rng = Rng.create 47 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 5 12 in
    check Alcotest.int "size" 5 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    Array.iteri
      (fun i x ->
        check Alcotest.bool "in range" true (x >= 0 && x < 12);
        if i > 0 then check Alcotest.bool "distinct" true (sorted.(i - 1) <> x))
      sorted
  done

let test_sample_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample_without_replacement")
    (fun () -> ignore (Rng.sample_without_replacement rng 5 3))

let test_choose () =
  let rng = Rng.create 53 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.choose rng a in
    check Alcotest.bool "member" true (Array.exists (( = ) x) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let suite =
  [
    ( "rng",
      [
        tc "determinism" `Quick test_determinism;
        tc "different seeds diverge" `Quick test_different_seeds;
        tc "copy is independent" `Quick test_copy_independent;
        tc "split diverges" `Quick test_split_diverges;
        tc "int bounds" `Quick test_int_bounds;
        tc "int rejects bad bound" `Quick test_int_rejects_bad_bound;
        tc "int_in inclusive" `Quick test_int_in_inclusive;
        tc "accept_max invariants" `Quick test_accept_max_invariants;
        tc "accept_max powers of two" `Quick
          test_accept_max_power_of_two_no_rejection;
        tc "accept_max rejects bad bound" `Quick
          test_accept_max_rejects_bad_bound;
        tc "int covers range" `Quick test_int_covers_range;
        tc "float bounds" `Quick test_float_bounds;
        tc "bernoulli extremes" `Quick test_bernoulli_extremes;
        tc "bernoulli rate" `Quick test_bernoulli_rate;
        tc "exponential mean" `Quick test_exponential_mean;
        tc "exponential rejects" `Quick test_exponential_rejects;
        tc "gaussian moments" `Quick test_gaussian_moments;
        tc "lognormal positive" `Quick test_lognormal_positive;
        tc "shuffle is permutation" `Quick test_shuffle_is_permutation;
        tc "permutation valid" `Quick test_permutation_valid;
        tc "permutation varies" `Quick test_permutation_varies;
        tc "sample without replacement" `Quick test_sample_without_replacement;
        tc "sample rejects" `Quick test_sample_rejects;
        tc "choose" `Quick test_choose;
        QCheck_alcotest.to_alcotest prop_int_matches_reference;
      ] );
  ]
