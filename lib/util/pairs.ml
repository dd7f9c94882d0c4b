(* Two parallel int arrays and a live length: pair [i] is
   [(first.(i), second.(i))] for [i < len]. The arrays keep the largest
   capacity they ever reached, so a buffer recycled across rounds and
   queries stops allocating once it has grown to its peak round. *)
type t = {
  mutable first : int array;
  mutable second : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Pairs.create: negative capacity";
  { first = Array.make capacity 0; second = Array.make capacity 0; len = 0 }

let length t = t.len [@@alloc_free]
let clear t = t.len <- 0 [@@alloc_free]

let grow t =
  let cap = max 16 (2 * Array.length t.first) in
  let extend a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.first <- extend t.first;
  t.second <- extend t.second

(* [push], [first] and [second] sit in every per-pair loop of a round;
   they are small enough to inline across modules, with the bounds test
   kept (one compare against [len]) and the array access unchecked. *)
let[@inline] push t a b =
  let i = t.len in
  if i = Array.length t.first then (grow [@alloc_cold]) t;
  (* [grow] leaves both arrays longer than [i]. *)
  Array.unsafe_set t.first i a;
  Array.unsafe_set t.second i b;
  t.len <- i + 1
[@@alloc_free]

let[@inline] first t i =
  if i < 0 || i >= t.len then invalid_arg "Pairs.first: index out of range";
  Array.unsafe_get t.first i
[@@alloc_free]

let[@inline] second t i =
  if i < 0 || i >= t.len then invalid_arg "Pairs.second: index out of range";
  Array.unsafe_get t.second i
[@@alloc_free]

let set t i a b =
  if i < 0 || i >= t.len then invalid_arg "Pairs.set: index out of range";
  Array.unsafe_set t.first i a;
  Array.unsafe_set t.second i b
[@@alloc_free]

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Pairs.truncate: bad length";
  t.len <- n
[@@alloc_free]

let reverse t lo hi =
  if lo < 0 || hi > t.len || lo > hi then invalid_arg "Pairs.reverse: bad range";
  let i = ref lo and j = ref (hi - 1) in
  while !i < !j do
    let a = Array.unsafe_get t.first !i and b = Array.unsafe_get t.second !i in
    Array.unsafe_set t.first !i (Array.unsafe_get t.first !j);
    Array.unsafe_set t.second !i (Array.unsafe_get t.second !j);
    Array.unsafe_set t.first !j a;
    Array.unsafe_set t.second !j b;
    incr i;
    decr j
  done
[@@alloc_free]

let to_list t =
  let rec loop acc i =
    if i < 0 then acc else loop ((t.first.(i), t.second.(i)) :: acc) (i - 1)
  in
  loop [] (t.len - 1)

let of_list l =
  let t = create ~capacity:(List.length l) () in
  List.iter (fun (a, b) -> push t a b) l;
  t
