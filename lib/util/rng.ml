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

(* Normal draws: Marsaglia & Tsang's ziggurat ("The Ziggurat Method for
   Generating Random Variables", JSS 2000) with 256 layers over the
   unnormalised half-density f(x) = exp(-x^2/2). Layer i (1..255) is
   the rectangle [0, x_i] x [f(x_i), f(x_{i+1})]; layer 0 is the base
   strip [0, R] x [0, f(R)] plus the tail beyond R, drawn as one
   rectangle of virtual width x_0 = v / f(R). Every layer has area v,
   so a uniform layer index and a uniform point in it sample the area
   under f. The layout, the bit split and the draw contract are in
   DESIGN.md ("The samplers").

   R is the 256-layer base; v is derived from it (base rectangle plus
   the Gaussian tail integral) instead of being taken as a rounded
   constant, which closes the recursion to f(x_256) = 1 within 3e-15.
   The two tables are written once here, at module initialisation —
   before any domain exists — and only read afterwards. *)
let zig_r = 3.6541528853610088

let zig_x, zig_f =
  let fr = exp (-0.5 *. zig_r *. zig_r) in
  let v =
    (zig_r *. fr) +. (sqrt (Float.pi /. 2.0) *. Float.erfc (zig_r /. sqrt 2.0))
  in
  let x = Array.make 257 0.0 and f = Array.make 257 1.0 in
  (* f.(0) is never read: the base strip's overflow goes to the tail,
     not to a wedge test. *)
  x.(0) <- v /. fr;
  x.(1) <- zig_r;
  f.(1) <- fr;
  for i = 1 to 254 do
    f.(i + 1) <- (v /. x.(i)) +. f.(i);
    x.(i + 1) <- sqrt (-2.0 *. log f.(i + 1))
  done;
  (* The top layer ends at the mode: x_256 = 0, f(x_256) = 1 exactly. *)
  (x, f)

(* One raw draw makes one candidate: bits 0-7 pick the layer, bits
   11-63 (arithmetic shift, so the top bit is the sign) give a signed
   integer s in [-2^52, 2^52), and u = (s + 1/2) / 2^52 is uniform on
   (-1, 1), symmetric and never 0. The two bit ranges do not overlap,
   so the layer and the abscissa are independent. Both halves are
   immediate ints, so handing a candidate to the out-of-line slow path
   boxes nothing. *)
let[@inline] zig_layer b = Int64.to_int b land 0xff [@@alloc_free]
let[@inline] zig_signed b = Int64.to_int (Int64.shift_right b 11) [@@alloc_free]

let[@inline] zig_x_of i s =
  (float_of_int s +. 0.5) *. 0x1p-52 *. Array.unsafe_get zig_x i
[@@alloc_free]

(* Marsaglia's tail beyond R: x = -log U1 / R, y = -log U2 until
   2y > x^2, giving R + x on the candidate's side. *)
let normal_tail t s =
  let x = ref 0.0 and accepted = ref false in
  while not !accepted do
    x := -.log (1.0 -. float t 1.0) /. zig_r;
    let y = -.log (1.0 -. float t 1.0) in
    accepted := 2.0 *. y > !x *. !x
  done;
  if s < 0 then -.(zig_r +. !x) else zig_r +. !x

(* The ~1.5% of candidates outside their layer's inner rectangle: the
   base strip goes to the tail, any other layer takes the wedge test
   (one more uniform against f) and, on a rejection, restarts with a
   fresh candidate. Out of line; only its float result is boxed. *)
let rec normal_slow t i s =
  if i = 0 then normal_tail t s
  else begin
    let x = zig_x_of i s in
    if
      zig_f.(i + 1) +. ((zig_f.(i) -. zig_f.(i + 1)) *. float t 1.0)
      < exp (-0.5 *. x *. x)
    then x
    else begin
      let b = bits64 t in
      let i = zig_layer b and s = zig_signed b in
      let x = zig_x_of i s in
      if Float.abs x < zig_x.(i + 1) then x else normal_slow t i s
    end
  end
[@@inline never]

let[@inline] std_normal t =
  let b = bits64 t in
  let i = zig_layer b and s = zig_signed b in
  let x = zig_x_of i s in
  if Float.abs x < Array.unsafe_get zig_x (i + 1) then x
  else (normal_slow [@alloc_cold]) t i s
[@@alloc_free]

let[@inline] gaussian t ~mu ~sigma = mu +. (sigma *. std_normal t)
[@@alloc_free]

let[@inline] lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma) [@@alloc_free]

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* [shuffle_in_place]'s loop on a prefix. Typed [int array], so its
   stores need no write barrier (a polymorphic array's do). *)
let shuffle_prefix t (a : int array) n =
  if n < 0 || n > Array.length a then
    invalid_arg "Rng.shuffle_prefix: bad length";
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done
[@@alloc_free]

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
