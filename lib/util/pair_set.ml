type t = {
  mutable n : int;
  (* Slots [0 .. mask] are the table (a power-of-two count; -1 marks
     empty); a set recycled by [reset] may hold a longer array. *)
  mutable keys : int array;
  mutable mask : int;
  mutable count : int;
}

let max_n = 1 lsl 31 (* keeps n * n < 2^62: packed keys never overflow *)

let rec next_pow2 k c = if c >= k then c else next_pow2 k (c * 2)

let check_universe name n =
  if n < 0 || n > max_n then invalid_arg (name ^ ": bad universe size")

let capacity expected = next_pow2 (max 8 (2 * expected)) 8

let create ?(expected = 16) n =
  check_universe "Pair_set.create" n;
  let cap = capacity expected in
  { n; keys = Array.make cap (-1); mask = cap - 1; count = 0 }

(* Only the table's own slots are cleared, so a set once grown for a
   large round empties in time proportional to the next one. *)
let reset ?(expected = 16) t n =
  check_universe "Pair_set.reset" n;
  let cap = capacity expected in
  if Array.length t.keys < cap then t.keys <- Array.make cap (-1)
  else Array.fill t.keys 0 cap (-1);
  t.n <- n;
  t.mask <- cap - 1;
  t.count <- 0

let key t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg "Pair_set: element out of range";
  if a = b then invalid_arg "Pair_set: self-pair";
  if a < b then (a * t.n) + b else (b * t.n) + a
[@@alloc_free]

(* Fibonacci hashing; [land mask] keeps the slot in range and
   non-negative. The probe is a while loop over an int slot index — a
   local [rec probe] would capture [t] and [k] in a closure — so a
   membership probe touches only the keys array. *)
let slot_of t k =
  let keys = t.keys and mask = t.mask in
  let i = ref ((k * 0x2545F4914F6CDD1D) land mask) in
  let s = ref (Array.unsafe_get keys !i) in
  while !s <> -1 && !s <> k do
    i := (!i + 1) land mask;
    s := Array.unsafe_get keys !i
  done;
  !i
[@@alloc_free]

let mem t a b =
  let k = key t a b in
  t.keys.(slot_of t k) = k
[@@alloc_free]

let grow t =
  let old = Array.sub t.keys 0 (t.mask + 1) in
  let cap = 2 * Array.length old in
  if Array.length t.keys < cap then t.keys <- Array.make cap (-1)
  else Array.fill t.keys 0 cap (-1);
  t.mask <- cap - 1;
  Array.iter (fun k -> if k >= 0 then t.keys.(slot_of t k) <- k) old

let add t a b =
  let k = key t a b in
  let i = slot_of t k in
  if t.keys.(i) = k then false
  else begin
    t.keys.(i) <- k;
    t.count <- t.count + 1;
    if 2 * t.count > t.mask then (grow [@alloc_cold]) t;
    true
  end
[@@alloc_free]
