(* A binary min-heap over parallel flat arrays: one unboxed float array
   for the keys, two int arrays for the payload words. Functionally the
   same structure as the generic heap in test/heap.ml with a
   [Float.compare]-on-time comparator, but with no boxed elements, no
   comparator closure, and no per-event allocation — the platform
   simulator pushes and pops one entry per simulated event on its hot
   path.

   The sift logic mirrors test/heap.ml exactly (strict-less promotion on
   the way up; strictly smaller child, left preferred, on the way down), so
   entries with equal times pop in the same order the generic heap would
   produce. The model test in test_event_calendar.ml pins this. Both
   sifts move a hole instead of swapping — the displaced entry is held
   in registers and written once at its final slot — which produces the
   same final array layout as element-by-element swaps with the same
   comparisons, at half the stores. [add] and [replace_min] are
   loop-free [@inline] wrappers (the sift loops live in helpers), so a
   caller's freshly computed key flows into the flat array without
   being boxed for the call.

   [replace_min] is a pop and a push in one sift-down from the root,
   the model's [replace_top]. Its layout, and so the pop order of
   equal keys, can differ from [remove_min] followed by [add]: the two
   agree on every pop of a distinct key, and the model test pins the
   fused order exactly. *)

type t = {
  mutable times : float array;
  mutable pa : int array;
  mutable pb : int array;
  mutable size : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    times = Array.make capacity 0.0;
    pa = Array.make capacity 0;
    pb = Array.make capacity 0;
    size = 0;
  }

let length t = t.size [@@alloc_free]
let is_empty t = t.size = 0 [@@alloc_free]
let clear t = t.size <- 0 [@@alloc_free]

let grow t =
  let cap = Array.length t.times in
  let ncap = 2 * cap in
  let ntimes = Array.make ncap 0.0 in
  let npa = Array.make ncap 0 in
  let npb = Array.make ncap 0 in
  Array.blit t.times 0 ntimes 0 t.size;
  Array.blit t.pa 0 npa 0 t.size;
  Array.blit t.pb 0 npb 0 t.size;
  t.times <- ntimes;
  t.pa <- npa;
  t.pb <- npb

(* The loops below index only within [0, size] (slot [size] is the
   sift-down's sentinel), which the [grow] checks in [add] and
   [replace_min] keep in bounds, so the unchecked accesses are safe. *)

(* Raise the entry at [i0] to its place: parents strictly larger than it
   shift down one level, and it lands in the freed slot. *)
let sift_up t i0 =
  let times = t.times and pa = t.pa and pb = t.pb in
  let tt = Array.unsafe_get times i0 in
  let aa = Array.unsafe_get pa i0 in
  let bb = Array.unsafe_get pb i0 in
  let i = ref i0 in
  let continue_ = ref (i0 > 0) in
  while !continue_ do
    let parent = (!i - 1) / 2 in
    if tt < Array.unsafe_get times parent then begin
      Array.unsafe_set times !i (Array.unsafe_get times parent);
      Array.unsafe_set pa !i (Array.unsafe_get pa parent);
      Array.unsafe_set pb !i (Array.unsafe_get pb parent);
      i := parent;
      continue_ := parent > 0
    end
    else continue_ := false
  done;
  if !i <> i0 then begin
    Array.unsafe_set times !i tt;
    Array.unsafe_set pa !i aa;
    Array.unsafe_set pb !i bb
  end
[@@alloc_free]

let[@inline] add t ~time a b =
  if Float.is_nan time then invalid_arg "Event_calendar.add: NaN time";
  if t.size = Array.length t.times then (grow [@alloc_cold]) t;
  let i = t.size in
  t.size <- i + 1;
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.pa i a;
  Array.unsafe_set t.pb i b;
  sift_up t i
[@@alloc_free]

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Event_calendar.min_time: empty";
  Array.unsafe_get t.times 0
[@@alloc_free]

let[@inline] min_a t =
  if t.size = 0 then invalid_arg "Event_calendar.min_a: empty";
  Array.unsafe_get t.pa 0
[@@alloc_free]

let[@inline] min_b t =
  if t.size = 0 then invalid_arg "Event_calendar.min_b: empty";
  Array.unsafe_get t.pb 0
[@@alloc_free]

(* Sink the entry at the root to its place among [0, n): the strictly
   smaller child (left preferred on ties) rises one level while the
   entry is strictly larger than it; one final store places the entry.
   Positions match the swap formulation comparison for comparison.

   The caller keeps slot [n] at +inf, a sentinel, so a live left child
   [l < n] always has a readable right sibling [l + 1 <= n]: the child
   pick needs no [r < n] test and is branch-free. A real right child
   compares exactly as before; the sentinel never wins ([+inf < x] is
   false for every non-NaN [x]), which is the old "no right child, take
   the left" case. *)
let sift_down t n =
  let times = t.times and pa = t.pa and pb = t.pb in
  let tt = Array.unsafe_get times 0 in
  let aa = Array.unsafe_get pa 0 in
  let bb = Array.unsafe_get pb 0 in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let j = !i in
    let l = (2 * j) + 1 in
    if l >= n then continue_ := false
    else begin
      let c =
        l
        + Bool.to_int (Array.unsafe_get times (l + 1) < Array.unsafe_get times l)
      in
      if Array.unsafe_get times c < tt then begin
        Array.unsafe_set times j (Array.unsafe_get times c);
        Array.unsafe_set pa j (Array.unsafe_get pa c);
        Array.unsafe_set pb j (Array.unsafe_get pb c);
        i := c
      end
      else continue_ := false
    end
  done;
  if !i <> 0 then begin
    Array.unsafe_set times !i tt;
    Array.unsafe_set pa !i aa;
    Array.unsafe_set pb !i bb
  end
[@@alloc_free]

(* The displaced last entry moves to the root and sinks; the slot it
   vacates becomes the sentinel. *)
let remove_min t =
  if t.size = 0 then invalid_arg "Event_calendar.remove_min: empty";
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let times = t.times and pa = t.pa and pb = t.pb in
    Array.unsafe_set times 0 (Array.unsafe_get times n);
    Array.unsafe_set pa 0 (Array.unsafe_get pa n);
    Array.unsafe_set pb 0 (Array.unsafe_get pb n);
    Array.unsafe_set times n Float.infinity;
    sift_down t n
  end
[@@alloc_free]

(* The new entry takes the root's slot and sinks. The slot just past
   the live entries becomes the sentinel, which needs it to exist: at
   full capacity the arrays grow first. *)
let[@inline] replace_min t ~time a b =
  if t.size = 0 then invalid_arg "Event_calendar.replace_min: empty";
  if Float.is_nan time then invalid_arg "Event_calendar.replace_min: NaN time";
  let n = t.size in
  if n = Array.length t.times then (grow [@alloc_cold]) t;
  Array.unsafe_set t.times n Float.infinity;
  Array.unsafe_set t.times 0 time;
  Array.unsafe_set t.pa 0 a;
  Array.unsafe_set t.pb 0 b;
  sift_down t n
[@@alloc_free]
