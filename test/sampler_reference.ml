(* The samplers the simulated crowd used before the ziggurat and the
   inverted patience draw: the Box-Muller [Rng.gaussian] and the
   Bernoulli-loop [Platform.draw_patience]. Kept as distribution
   references only — the new samplers draw different variates from the
   same stream, so the tests compare distributions, not values. *)

open Crowdmax_util

(* Box-Muller, cosine half only: two uniforms and log/sqrt/cos per
   draw. *)
let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. Rng.float t 1.0 in
  let u2 = Rng.float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* Geometric patience on {1, 2, ...}: one Bernoulli(p) trial per
   question until the first success. *)
let patience rng p =
  let k = ref 1 in
  while not (Rng.bernoulli rng p) do
    incr k
  done;
  !k
