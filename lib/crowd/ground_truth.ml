open Crowdmax_util

(* [values] is [None] for rank-only truths: [value] then derives
   [float_of_int rank], exactly, instead of storing a copy. *)
type t = { ranks : int array; values : float array option }

let check_permutation ranks =
  let n = Array.length ranks in
  let seen = Array.make n false in
  Array.iter
    (fun r ->
      if r < 0 || r >= n || seen.(r) then
        invalid_arg "Ground_truth: ranks must form a permutation";
      seen.(r) <- true)
    ranks

let of_ranks ranks =
  check_permutation ranks;
  { ranks = Array.copy ranks; values = None }

let random rng n =
  (* [Rng.permutation] is a permutation by construction: skip the
     validation pass and defensive copy that [of_ranks] owes arbitrary
     caller arrays. *)
  { ranks = Rng.permutation rng n; values = None }

let with_values rng n ~lo ~hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Ground_truth.with_values: bad range";
  let raw =
    Array.init n (fun _ ->
        let u = Rng.float rng 1.0 in
        lo *. exp (u *. log (hi /. lo)))
  in
  (* Rank elements by value; perturb exact ties deterministically by id
     so ranks stay a strict order. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare raw.(a) raw.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let ranks = Array.make n 0 in
  Array.iteri (fun pos e -> ranks.(e) <- pos) order;
  { ranks; values = Some raw }

let size t = Array.length t.ranks
let ranks t = t.ranks

let rank t e =
  if e < 0 || e >= size t then invalid_arg "Ground_truth.rank: out of range";
  t.ranks.(e)

let value t e =
  if e < 0 || e >= size t then invalid_arg "Ground_truth.value: out of range";
  match t.values with
  | Some values -> values.(e)
  | None -> float_of_int t.ranks.(e)

let max_element t =
  let best = ref 0 in
  Array.iteri (fun e r -> if r > t.ranks.(!best) then best := e) t.ranks;
  !best

let[@inline] better t a b =
  if a = b then invalid_arg "Ground_truth.better: same element";
  (* One combined range check instead of two [rank] calls: this sits on
     the oracle answer hot path. *)
  let n = Array.length t.ranks in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Ground_truth.rank: out of range";
  if Array.unsafe_get t.ranks a > Array.unsafe_get t.ranks b then a else b

let compare_elements t a b = Int.compare (rank t a) (rank t b)

let sorted_desc t =
  let order = Array.init (size t) (fun i -> i) in
  Array.sort (fun a b -> Int.compare t.ranks.(b) t.ranks.(a)) order;
  order
