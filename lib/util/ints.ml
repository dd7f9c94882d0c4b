let choose2 n = if n < 2 then 0 else n * (n - 1) / 2 [@@alloc_free]

let ceil_div a b = (a + b - 1) / b [@@alloc_free]

let sum = List.fold_left ( + ) 0

let range lo hi =
  let rec loop acc i = if i < lo then acc else loop (i :: acc) (i - 1) in
  loop [] hi

(* A while loop, not a local [rec loop]: that would capture [n] in a
   closure allocated on every call, and the planner calls this once per
   round-count row it fills. *)
let log2_ceil n =
  let k = ref 0 and pow = ref 1 in
  while !pow < n do
    incr k;
    pow := !pow * 2
  done;
  !k
[@@alloc_free]
