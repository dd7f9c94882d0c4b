(* Contention-aware latency: L(q, o) for a query posting q questions
   while the rest of the fleet keeps o raw questions in the same
   marketplace. See contention.mli for the model story. *)

type observation = { batch_size : int; other_load : int; seconds : float }

type t = { base : Model.t; beta : float }

let create ~base ~beta =
  (match base with
  | Model.Linear _ -> ()
  | _ -> invalid_arg "Contention.create: base model must be Linear");
  if Float.is_nan beta || not (Float.is_finite beta) then
    invalid_arg "Contention.create: beta must be finite";
  { base; beta }

let base t = t.base
let beta t = t.beta
let equal a b = Model.equal a.base b.base && Float.equal a.beta b.beta

(* The effective model under a fixed fleet load: own q plus the
   discounted foreign load behave like one bigger batch, so for a
   linear base the whole effect is an intercept shift —
   delta' = delta + alpha * beta * o — and the result is a plain
   [Model.Linear] the planner (and [Tdp.Cache], which keys on
   [Model.equal]) handles natively. The shifted intercept is floored at
   the base's own delta: a negative beta fitted from a noisy window
   must not promise rounds faster than an empty marketplace. *)
let effective t ~other_load =
  if other_load < 0 then invalid_arg "Contention.effective: negative load";
  match t.base with
  | Model.Linear { delta; alpha } ->
      let shift = alpha *. t.beta *. float_of_int other_load in
      Model.linear ~delta:(Float.max delta (delta +. shift)) ~alpha
  | _ -> assert false (* create only admits Linear *)

(* One-parameter least squares for beta, base held fixed: minimizing
   sum (seconds - delta - alpha*(q + beta*o))^2 over beta gives
   beta_hat = sum(r_i * o_i) / (alpha * sum o_i^2) with
   r_i = seconds_i - eval base q_i. The base comes from the existing
   Estimate pipeline (fit on solo observations); this adds the single
   contention parameter on top, so a loaded calibration ladder is the
   only extra data needed. *)
let fit ~base observations =
  (match base with
  | Model.Linear _ -> ()
  | _ -> invalid_arg "Contention.fit: base model must be Linear");
  let alpha = match base with Model.Linear { alpha; _ } -> alpha | _ -> 0.0 in
  if not (alpha > 0.0) then
    invalid_arg "Contention.fit: base slope must be > 0";
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun { batch_size; other_load; seconds } ->
      if batch_size < 0 || other_load < 0 then
        invalid_arg "Contention.fit: negative observation";
      if Float.is_nan seconds || not (Float.is_finite seconds) then
        invalid_arg "Contention.fit: non-finite seconds";
      let o = float_of_int other_load in
      let r = seconds -. Model.eval base batch_size in
      num := !num +. (r *. o);
      den := !den +. (o *. o))
    observations;
  if !den <= 0.0 then
    invalid_arg "Contention.fit: no observation carries a foreign load";
  let beta = !num /. (alpha *. !den) in
  if Float.is_nan beta || not (Float.is_finite beta) then
    invalid_arg "Contention.fit: degenerate beta";
  { base; beta }
