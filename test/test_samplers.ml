(* Distribution tests for the simulated crowd's samplers: the ziggurat
   normal behind [Rng.gaussian] and [Rng.lognormal], and the inverted
   geometric patience draw of [Platform.draw_patience]. Each is checked
   against its exact distribution and against the sampler it replaced
   ([Sampler_reference]). *)

open Crowdmax_util
module P = Crowdmax_crowd.Platform

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let tc = Alcotest.test_case
let n_normal = 1_000_000

let within msg ~expected ~sd x =
  check_bool
    (Printf.sprintf "%s: %.5f vs %.5f (4 sd = %.5f)" msg x expected (4.0 *. sd))
    true
    (Float.abs (x -. expected) <= 4.0 *. sd)

let draws n f = Array.init n (fun _ -> f ())

(* Sample mean, variance, skewness and excess kurtosis, each within 4
   standard errors of N(0, 1)'s 0, 1, 0, 0. *)
let test_normal_moments () =
  let rng = Rng.create 20_240_601 in
  let xs = draws n_normal (fun () -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let n = float_of_int n_normal in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let moment k =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** float_of_int k)) 0.0 xs
    /. n
  in
  let m2 = moment 2 and m3 = moment 3 and m4 = moment 4 in
  within "mean" ~expected:0.0 ~sd:(sqrt (1.0 /. n)) mean;
  within "variance" ~expected:1.0 ~sd:(sqrt (2.0 /. n)) m2;
  within "skewness" ~expected:0.0 ~sd:(sqrt (6.0 /. n)) (m3 /. (m2 ** 1.5));
  within "excess kurtosis" ~expected:0.0 ~sd:(sqrt (24.0 /. n))
    ((m4 /. (m2 *. m2)) -. 3.0)

(* Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
   two empirical CDFs, walked over the merged sorted samples. *)
let ks_two_sample a b =
  let a = Array.copy a and b = Array.copy b in
  Array.sort Float.compare a;
  Array.sort Float.compare b;
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and d = ref 0.0 in
  while !i < na && !j < nb do
    let x = Float.min a.(!i) b.(!j) in
    while !i < na && a.(!i) <= x do
      incr i
    done;
    while !j < nb && b.(!j) <= x do
      incr j
    done;
    let gap =
      Float.abs
        ((float_of_int !i /. float_of_int na) -. (float_of_int !j /. float_of_int nb))
    in
    if gap > !d then d := gap
  done;
  !d

(* The ziggurat against the Box-Muller it replaced, on independent
   streams: the KS statistic must stay below the alpha = 1e-3 critical
   value sqrt(-ln(alpha/2) / 2) * sqrt((n + m) / (n m)). *)
let test_normal_ks_vs_box_muller () =
  let zig = Rng.create 11 and ref_rng = Rng.create 12 in
  let a = draws n_normal (fun () -> Rng.gaussian zig ~mu:0.0 ~sigma:1.0) in
  let b =
    draws n_normal (fun () -> Sampler_reference.gaussian ref_rng ~mu:0.0 ~sigma:1.0)
  in
  let n = float_of_int n_normal in
  let critical = sqrt (-.log (1e-3 /. 2.0) /. 2.0) *. sqrt (2.0 /. n) in
  let d = ks_two_sample a b in
  check_bool
    (Printf.sprintf "KS %.5f below the 1e-3 critical value %.5f" d critical)
    true (d < critical)

(* The mass beyond the ziggurat's base R = 3.6541528853610088: every
   such draw comes from the slow path's tail sampler (and the base
   strip's rectangle part covers [0, R) only), so this pins the tail
   against 2 (1 - Phi(R)) = erfc(R / sqrt 2). *)
let test_normal_tail_mass () =
  let r = 3.6541528853610088 in
  let rng = Rng.create 31 in
  let beyond = ref 0 in
  for _ = 1 to n_normal do
    if Float.abs (Rng.gaussian rng ~mu:0.0 ~sigma:1.0) > r then incr beyond
  done;
  let p = Float.erfc (r /. sqrt 2.0) in
  let n = float_of_int n_normal in
  within "draws beyond R" ~expected:(n *. p) ~sd:(sqrt (n *. p *. (1.0 -. p)))
    (float_of_int !beyond)

(* The shape inside the layers: |x| binned at width 0.02 over [0, 4)
   plus the tail, 201 bins, against exact normal masses from erfc. The
   bins are as thin as the ziggurat's layers, so a wrong wedge test or
   layer table shows here even where the moments and the KS statistic
   stay inside their bounds. 267.54 is the df = 200 critical value at
   alpha = 1e-3. *)
let test_normal_binned_chi2 () =
  let rng = Rng.create 37 in
  let bins = 200 and width = 0.02 in
  let h = Array.make (bins + 1) 0 in
  for _ = 1 to n_normal do
    let b =
      int_of_float (Float.abs (Rng.gaussian rng ~mu:0.0 ~sigma:1.0) /. width)
    in
    let b = if b >= bins then bins else b in
    h.(b) <- h.(b) + 1
  done;
  let beyond x = Float.erfc (x /. sqrt 2.0) in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun b count ->
      let lo = float_of_int b *. width in
      let p = if b = bins then beyond lo else beyond lo -. beyond (lo +. width) in
      let e = float_of_int n_normal *. p in
      chi2 := !chi2 +. (((float_of_int count -. e) ** 2.0) /. e))
    h;
  check_bool
    (Printf.sprintf "chi2 %.1f below 267.54" !chi2)
    true (!chi2 < 267.54)

(* mu and sigma are a plain affine map of the standard draw, and a
   lognormal is its exponential: same stream, same variates. *)
let test_affine_and_lognormal () =
  let a = Rng.create 5 and b = Rng.create 5 and c = Rng.create 5 in
  let affine_err = ref 0.0 and log_err = ref 0.0 in
  for _ = 1 to 10_000 do
    let z = Rng.gaussian a ~mu:0.0 ~sigma:1.0 in
    let g = Rng.gaussian b ~mu:2.0 ~sigma:0.5 in
    let l = Rng.lognormal c ~mu:2.0 ~sigma:0.5 in
    affine_err := Float.max !affine_err (Float.abs (2.0 +. (0.5 *. z) -. g));
    log_err := Float.max !log_err (Float.abs ((exp g -. l) /. l))
  done;
  check_bool "affine" true (!affine_err <= 1e-12);
  check_bool "lognormal = exp gaussian" true (!log_err <= 1e-12)

(* The draw contract: a fast-path candidate costs one raw draw, and the
   slow path is rare (~1.5% of candidates), so 1e5 normals take about
   1.02e5 raw draws. *)
let test_normal_draw_budget () =
  let rng = Rng.create 8 in
  let base = Rng.copy rng in
  let n = 100_000 in
  for _ = 1 to n do
    ignore (Rng.gaussian rng ~mu:0.0 ~sigma:1.0 : float)
  done;
  let used = Rng.draws_since ~base rng in
  check_bool
    (Printf.sprintf "%d raw draws for %d normals" used n)
    true
    (used >= n && used < n + (n / 20))

(* Chi-square over patience bins 1..30 plus the pooled tail: 31 bins,
   statistic below the df = 30 critical value at alpha = 1e-3. *)
let bins = 31
let chi2_critical_df30 = 59.703

let histogram draw n =
  let h = Array.make bins 0 in
  for _ = 1 to n do
    let k = draw () in
    let b = if k >= bins then bins - 1 else k - 1 in
    h.(b) <- h.(b) + 1
  done;
  h

let n_patience = 200_000
let p_patience = 1.0 /. 8.0

let test_patience_vs_geometric () =
  let rng = Rng.create 41 in
  let log_q = Float.log1p (-.p_patience) in
  let h = histogram (fun () -> P.draw_patience rng ~log_q) n_patience in
  let n = float_of_int n_patience in
  let q = 1.0 -. p_patience in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun b count ->
      (* P(k = b + 1) for the open bins, P(k >= bins) for the last. *)
      let prob =
        if b < bins - 1 then p_patience *. (q ** float_of_int b)
        else q ** float_of_int (bins - 1)
      in
      let e = n *. prob in
      chi2 := !chi2 +. (((float_of_int count -. e) ** 2.0) /. e))
    h;
  check_bool
    (Printf.sprintf "chi2 %.1f below %.1f" !chi2 chi2_critical_df30)
    true
    (!chi2 < chi2_critical_df30)

(* Homogeneity against the Bernoulli loop on an independent stream:
   equal sample sizes, so the statistic is sum (a - b)^2 / (a + b). *)
let test_patience_vs_loop () =
  let a_rng = Rng.create 43 and b_rng = Rng.create 44 in
  let log_q = Float.log1p (-.p_patience) in
  let a = histogram (fun () -> P.draw_patience a_rng ~log_q) n_patience in
  let b =
    histogram (fun () -> Sampler_reference.patience b_rng p_patience) n_patience
  in
  let chi2 = ref 0.0 in
  for i = 0 to bins - 1 do
    let s = a.(i) + b.(i) in
    if s > 0 then
      chi2 := !chi2 +. (float_of_int ((a.(i) - b.(i)) * (a.(i) - b.(i))) /. float_of_int s)
  done;
  check_bool
    (Printf.sprintf "chi2 %.1f below %.1f" !chi2 chi2_critical_df30)
    true
    (!chi2 < chi2_critical_df30)

(* p = 1 (log_q = -infinity): every sitting answers exactly one
   question, whatever the uniform — including U = 1, where log U = 0.
   Each sitting consumes exactly one raw draw. *)
let test_patience_p_one () =
  let rng = Rng.create 47 in
  let base = Rng.copy rng in
  let log_q = Float.log1p (-1.0) in
  for _ = 1 to 10_000 do
    check_int "p = 1 gives 1" 1 (P.draw_patience rng ~log_q)
  done;
  check_int "one draw per sitting" 10_000 (Rng.draws_since ~base rng)

let suite =
  [
    ( "samplers",
      [
        tc "normal moments (1e6 draws)" `Quick test_normal_moments;
        tc "normal KS vs Box-Muller" `Quick test_normal_ks_vs_box_muller;
        tc "normal tail mass beyond R" `Quick test_normal_tail_mass;
        tc "normal binned chi2 vs exact" `Quick test_normal_binned_chi2;
        tc "gaussian affine, lognormal = exp" `Quick test_affine_and_lognormal;
        tc "normal draw budget" `Quick test_normal_draw_budget;
        tc "patience chi2 vs geometric(1/8)" `Quick test_patience_vs_geometric;
        tc "patience chi2 vs Bernoulli loop" `Quick test_patience_vs_loop;
        tc "patience p = 1 always 1" `Quick test_patience_p_one;
      ] );
  ]
