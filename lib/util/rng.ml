(* The 64-bit splitmix state is stored as two 32-bit halves in immediate
   ints: a [mutable state : int64] field holds a pointer to a boxed
   value, so every draw would allocate a fresh box and pay a write
   barrier — measurable on the engine hot path, which consumes a couple
   of hundred draws per run. Reassembling the halves costs three
   unboxed int64 ops; the stores are plain int stores. *)
type t = { mutable hi : int; mutable lo : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] state t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)
[@@alloc_free]

let[@inline] set_state t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL)
[@@alloc_free]

let create seed =
  let t = { hi = 0; lo = 0 } in
  set_state t (Int64.of_int seed);
  t

let copy t = { hi = t.hi; lo = t.lo }

(* splitmix64 finalizer: the state marches by a fixed gamma and each output
   is a strong mix of the new state value. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
[@@alloc_free]

let[@inline] bits64 t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix64 s
[@@alloc_free]

let split t =
  let s = bits64 t in
  let u = { hi = 0; lo = 0 } in
  set_state u s;
  u

(* Multiplicative inverse of [golden_gamma] mod 2^64 — the gamma is odd,
   hence invertible — so a state difference divides back into an exact
   draw count. *)
let golden_gamma_inv = 0xF1DE83E19937733DL

let draws_since ~base t =
  Int64.to_int (Int64.mul (Int64.sub (state t) (state base)) golden_gamma_inv)

(* Draws for [int] are 63-bit (the sign bit is shifted out), i.e. uniform
   on [0, 2^63). [accept_max bound] is the largest draw that keeps the
   accepted region [0 .. accept_max] an exact multiple of [bound] long:
   2^63 - (2^63 mod bound) - 1. Taking [x mod bound] only for accepted
   draws makes every residue equally likely — rejection sampling instead
   of the modulo-biased [x mod bound] over the whole range. Fewer than
   [bound] of the 2^63 draw values are ever rejected, so for the small
   bounds this codebase uses the redraw probability is ~2^-50. *)
let[@inline] accept_max bound =
  if bound <= 0 then invalid_arg "Rng.accept_max: bound must be positive";
  let b = Int64.of_int bound in
  (* 2^63 mod b = ((2^63 - 1) mod b) + 1, folded back to 0 when it
     reaches b. One division instead of two: [int] calls this on every
     draw and idiv is the expensive instruction in it. *)
  let r = Int64.add (Int64.rem Int64.max_int b) 1L in
  let r = if Int64.equal r b then 0L else r in
  Int64.sub Int64.max_int r
[@@alloc_free]

(* The rejection loop is a while over an int result (a local ref the
   compiler turns into a mutable stack slot) rather than a local [rec]
   redraw function: the int64 temporaries stay in registers and the
   draw sequence — one [bits64] per attempt until the first accepted
   value — is unchanged.

   [accept_max bound] costs a division, so it is not computed up front:
   [accept_max bound >= 2^63 - bound > Int64.max_int - bound], hence a
   draw [x <= Int64.max_int - bound] is accepted without it. Only the
   last [bound] draw values (probability [bound / 2^63]) take the exact
   test. Every accept/reject decision is the same as testing against
   [accept_max] alone, so the values and the draw count are unchanged;
   the common case pays one division, the [rem] that forms the result. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  let fast = Int64.sub Int64.max_int b in
  let r = ref (-1) in
  while !r < 0 do
    let x = Int64.shift_right_logical (bits64 t) 1 in
    if
      Int64.compare x fast <= 0 || Int64.compare x (accept_max bound) <= 0
    then r := Int64.to_int (Int64.rem x b)
  done;
  !r
[@@alloc_free]

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)
[@@alloc_free]

let[@inline] float t bound =
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound
[@@alloc_free]

let[@inline] bool t = Int64.compare (bits64 t) 0L < 0 [@@alloc_free]

let[@inline] bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p
[@@alloc_free]

let[@inline] exponential t mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
[@@alloc_free]

let[@inline] gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
[@@alloc_free]

let[@inline] lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma) [@@alloc_free]

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let a = permutation t n in
  Array.sub a 0 k

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
