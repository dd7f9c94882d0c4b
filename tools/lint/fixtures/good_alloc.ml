(* Clean R6 fixture: an arena-style accumulator whose hot path is
   allocation-free. Growth is fenced behind [@alloc_cold], the bounds
   error may build its message because raise paths are excluded, and
   the local int ref in [sum] stays unboxed. None of the annotated
   functions below may produce a finding. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 16 0; len = 0 }

let grow t =
  let bigger = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let push t x =
  if t.len = Array.length t.data then (grow [@alloc_cold]) t;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1
[@@alloc_free]

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Good_alloc.get: index out of bounds";
  Array.unsafe_get t.data i
[@@alloc_free]

let sum t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + Array.unsafe_get t.data i
  done;
  !acc
[@@alloc_free]

(* A branch-free count: [Bool.to_int] is a [%identity] external. *)
let count_below t x =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + Bool.to_int (Array.unsafe_get t.data i < x)
  done;
  !acc
[@@alloc_free]
