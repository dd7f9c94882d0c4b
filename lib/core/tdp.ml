open Crowdmax_util
module Model = Crowdmax_latency.Model
module Metrics = Crowdmax_obs.Metrics
module T = Crowdmax_tournament.Tournament

type solution = {
  sequence : int list;
  allocation : Allocation.t;
  latency : float;
  questions_used : int;
  states_visited : int;
}

let clamp_budget c q = min q (Ints.choose2 c)

(* A non-finite L(q) — e.g. a malformed latency model that slipped past
   construction — would poison every DP value it touches and surface
   only as a nonsense plan; fail at the first evaluation instead. *)
let checked_latency_of fn latency q =
  let l = Model.eval latency q in
  if not (Float.is_finite l) then
    invalid_arg (Printf.sprintf "Tdp.%s: L(%d) = %g is not finite" fn q l);
  l

(* The solver's working state, reusable across solves (the plan cache).

   Everything here is a pure function of (model, capacity) alone:
   - [ub]/[ub_next]: unconstrained optima, ub.(c) = OL(choose2 c, c).
     Models under the round-count bound fill them on demand (NaN =
     not computed yet, see [force_ub]); every other model builds them
     eagerly in [eager_ub]. [ub_count] counts the entries computed;
   - [ch2]: choose2 memo; [lq]: L by batch size, filled lazily by the
     eager build for non-linear models — every batch size the DP can
     touch appears as some Q(c, c') the build scans, so the DP reads it
     with a plain load. Linear models never allocate [lq]: L is three
     flops, cheaper inline than a 4 MB table ([lq] stays [||]).
     Q(c, c') itself is never tabulated — scans step it linearly within
     constant-quotient runs and point lookups are one division — so a
     rebuild allocates only O(c0) words;
   - the arena: open-addressed parallel arrays over packed state keys
     [(c lsl qbits) lor q] (0 = empty slot, valid because memoized
     states have c >= 3 and hence a positive key). Values live in an
     unboxed float array ([lat]) and an int array ([nxt]) — no tuple or
     option allocation on the probe path;
   - the work stacks: frames of the explicit DFS that replaces the
     recursive [ol] ([st_*]), and of the one that forces [ub] entries
     ([uf_*]); depth <= capacity each;
   - [qmin]/[smin]: the domain's round-count table and this model's
     suffix minima over it, for the linear-model pruning bound (both
     [||] when the bound does not apply).

   Budget-constrained DP states OL(c, q) do not depend on the instance's
   own c0 (only on the model), so a cache built for capacity [k] is
   valid for any instance with c0 <= k — the invalidation rule lives in
   [prepare] below. *)
type cache = {
  mutable model : Model.t option;  (* None = empty, must rebuild *)
  mutable capacity : int;  (* largest c0 the tables cover *)
  mutable qbits : int;  (* low bits of a packed key hold q *)
  mutable ub : float array;  (* NaN = not computed yet *)
  mutable ub_next : int array;
  mutable ub_count : int;  (* ub entries computed *)
  mutable ch2 : int array;
  mutable lq : float array;  (* [||] for linear models: L is inlined *)
  mutable qmin : int array array;  (* the domain's Qmin table, rows r *)
  mutable smin : float array;  (* [||] unless the round bound applies *)
  mutable keys : int array;
  mutable lat : float array;
  mutable nxt : int array;
  mutable mask : int;
  mutable count : int;  (* settled states in the arena *)
  mutable st_c : int array;
  mutable st_q : int array;
  mutable st_i : int array;  (* candidate c' a suspended frame waits on *)
  mutable st_best : float array;
  mutable st_next : int array;
  mutable uf_c : int array;  (* [force_ub] frames; [||] when eager *)
  mutable uf_i : int array;
  mutable uf_best : float array;
  mutable uf_next : int array;
  mutable reuses : int;
  mutable rebuilds : int;
}

module Cache = struct
  type t = cache

  let create () =
    {
      model = None;
      capacity = -1;
      qbits = 1;
      ub = [||];
      ub_next = [||];
      ub_count = 0;
      ch2 = [||];
      lq = [||];
      qmin = [||];
      smin = [||];
      keys = [||];
      lat = [||];
      nxt = [||];
      mask = 0;
      count = 0;
      st_c = [||];
      st_q = [||];
      st_i = [||];
      st_best = [||];
      st_next = [||];
      uf_c = [||];
      uf_i = [||];
      uf_best = [||];
      uf_next = [||];
      reuses = 0;
      rebuilds = 0;
    }

  let clear t =
    let e = create () in
    t.model <- e.model;
    t.capacity <- e.capacity;
    t.qbits <- e.qbits;
    t.ub <- e.ub;
    t.ub_next <- e.ub_next;
    t.ub_count <- e.ub_count;
    t.ch2 <- e.ch2;
    t.lq <- e.lq;
    t.qmin <- e.qmin;
    t.smin <- e.smin;
    t.keys <- e.keys;
    t.lat <- e.lat;
    t.nxt <- e.nxt;
    t.mask <- e.mask;
    t.count <- e.count;
    t.st_c <- e.st_c;
    t.st_q <- e.st_q;
    t.st_i <- e.st_i;
    t.st_best <- e.st_best;
    t.st_next <- e.st_next;
    t.uf_c <- e.uf_c;
    t.uf_i <- e.uf_i;
    t.uf_best <- e.uf_best;
    t.uf_next <- e.uf_next;
    t.reuses <- e.reuses;
    t.rebuilds <- e.rebuilds

  let hits t = t.reuses
  let misses t = t.rebuilds
  let states_settled t = t.count
  let capacity t = max 0 t.capacity
  let ub_entries t = t.ub_count

  let ub_entry t c =
    if c < 1 || c > t.capacity || Float.is_nan t.ub.(c) then None
    else Some (t.ub.(c), t.ub_next.(c))
end

(* Fibonacci-hash open addressing (the Pair_set scheme): multiply by the
   64-bit golden-ratio constant, probe linearly under [land mask]. The
   probe is a while loop over an int slot index — a local [rec probe]
   would capture [keys]/[mask]/[key] in a closure on every memo probe. *)
let find_slot keys mask key =
  let i = ref ((key * 0x2545F4914F6CDD1D) land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> key && !k <> 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i
[@@alloc_free]

let grow t =
  let okeys = t.keys and olat = t.lat and onxt = t.nxt in
  let cap = 2 * Array.length okeys in
  let keys = Array.make cap 0 in
  let lat = Array.make cap 0.0 in
  let nxt = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let s = find_slot keys mask k in
        Array.unsafe_set keys s k;
        Array.unsafe_set lat s (Array.unsafe_get olat i);
        Array.unsafe_set nxt s (Array.unsafe_get onxt i)
      end)
    okeys;
  t.keys <- keys;
  t.lat <- lat;
  t.nxt <- nxt;
  t.mask <- mask

(* Smallest bit width that can hold every value in [0, n]. *)
let bits_for n =
  let k = ref 1 in
  while n lsr !k <> 0 do
    incr k
  done;
  !k

let initial_arena = 256

(* --- the round-count lower bound (linear models) ------------------------ *)

(* Qmin_r(c): the fewest questions that take c candidates to 1 in at most
   r rounds. Row 1 is choose2 c (one round asks every pair); row r >= 2
   is min over c' < c of Q(c, c') + Qmin_{r-1}(c'). Every plan needs
   c - 1 questions (each loser loses once), and the knockout plan
   reaches that floor in log2_ceil c rounds, so a table covering
   capacity k has rows 1..log2_ceil k (index 0 is unused) and any row
   r >= log2_ceil c holds c - 1 without a scan.

   The table depends on nothing but [Tournament.questions], so each
   domain builds it once and shares it across every solve and every
   cache it runs: [qmin_key] holds the largest table built so far, and a
   larger instance rebuilds it at the next power-of-two multiple of the
   old capacity (release build on a 2.1 GHz Xeon: ~2 ms at 512, ~7 ms
   at 1024, ~30 ms at 2048). Entries never change with capacity, so a
   cache keeps whichever table it was built with. *)
let build_qmin cap =
  let rows = Ints.log2_ceil cap + 1 in
  let qm = Array.make rows [||] in
  qm.(1) <- Array.init (cap + 1) Ints.choose2;
  for r = 2 to rows - 1 do
    let prev = qm.(r - 1) in
    let row = Array.init (cap + 1) (fun c -> max 0 (c - 1)) in
    (* below 2^r the knockout floor c - 1 is already exact *)
    for c = (1 lsl r) + 1 to cap do
      (* The ub build's constant-quotient runs, taken from c' = c - 1
         down: cheap rounds come first, so the incumbent is near the
         optimum early. Q falls and Qmin_{r-1} rises along a run, so
         Q(c, hi) + Qmin_{r-1}(lo) bounds a whole run from below, and
         once Q(c, hi) alone reaches the incumbent every smaller c',
         asking more questions still, is out too. *)
      let best = ref max_int in
      let hi = ref (c - 1) in
      while !hi >= 1 do
        let v = c / !hi in
        let lo = (c / (v + 1)) + 1 in
        let step = Ints.choose2 v - (v * v) in
        let qhi = (c * v) + (!hi * step) in
        if qhi >= !best then hi := 0
        else begin
          if qhi + Array.unsafe_get prev lo < !best then begin
            let q = ref ((c * v) + (lo * step)) in
            for i = lo to !hi do
              let cand = !q + Array.unsafe_get prev i in
              if cand < !best then best := cand;
              q := !q + step
            done
          end;
          hi := lo - 1
        end
      done;
      row.(c) <- !best
    done;
    qm.(r) <- row
  done;
  qm

let qmin_key = Domain.DLS.new_key (fun () -> [||])

let qmin_table n =
  let qm = Domain.DLS.get qmin_key in
  let cap = if Array.length qm = 0 then 0 else Array.length qm.(1) - 1 in
  if cap >= n then qm
  else begin
    let cap = ref (max 64 cap) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let qm = build_qmin !cap in
    Domain.DLS.set qmin_key qm;
    qm
  end

let min_questions ~rounds c =
  if c < 1 || rounds < 1 then
    invalid_arg "Tdp.min_questions: need c >= 1 and rounds >= 1";
  let qm = qmin_table c in
  qm.(min rounds (Array.length qm - 1)).(c)

(* The smallest round count r >= 1 whose Qmin_r(c) fits in q; callers
   guarantee q >= c - 1, which the row log2_ceil c always admits. *)
let rounds_needed qm c q =
  let r = ref 1 in
  while Array.unsafe_get (Array.unsafe_get qm !r) c > q do
    incr r
  done;
  !r
[@@alloc_free]

(* A linear plan of R rounds and Q questions costs R delta + alpha Q, so
   with delta, alpha >= 0 the exact optimum is
     OL(c, q) = min over R >= rounds_needed c q of R delta + alpha Qmin_R(c)
   (fewer rounds never cost more when delta >= 0). The DP's float sums
   differ from this real value by at most ~(R + 2) 2^-53 relative — for
   normal, finite operands; subnormal parameters or an overflowing plan
   cost would void that, so they simply keep the bound off. [lb_margin]
   sits six orders of magnitude above that rounding, which is what lets
   the scan use the bound to prune without ever changing a value or a
   tie-break (see the DP scan in [solve]). *)
let lb_margin = 1e-9

let round_bound_applies ~delta ~alpha c0 =
  let normal x = Float.equal x 0.0 || x >= Float.min_float in
  normal delta && normal alpha
  && Float.is_finite
       (float_of_int c0
       *. (delta +. (alpha *. float_of_int (Ints.choose2 c0))))

(* smin.(c * smin_stride c0 + r) = min over R >= r of R delta + alpha
   Qmin_R(c): the suffix minimum that turns a point bound lookup into
   [rounds_needed] plus one load. Laid out c-major in one array, and
   filled only for r <= log2_ceil c — the largest [rounds_needed] can
   return, and past it Qmin stays c - 1 while R delta only grows. O(c0
   log c0) per rebuild. *)
let smin_stride c0 = Ints.log2_ceil c0 + 1

let build_smin qm ~delta ~alpha c0 =
  let stride = smin_stride c0 in
  let sm = Array.make ((c0 + 1) * stride) 0.0 in
  let top = ref 1 in
  for c = 2 to c0 do
    if c > 1 lsl !top then incr top;
    let acc = ref infinity in
    for r = !top downto 1 do
      let v =
        (float_of_int r *. delta) +. (alpha *. float_of_int qm.(r).(c))
      in
      if v < !acc then acc := v;
      sm.((c * stride) + r) <- !acc
    done
  done;
  sm

(* --- the unconstrained table ------------------------------------------- *)

(* ub.(c) is the best latency reachable from [c] candidates when the
   budget never binds (a budget of choose2 c is as good as infinite):
   the first argmin, under strict <, of L(Q(c, c')) +. ub.(c') over
   c' = 1..c-1 ascending — the seed's eager scan (test/tdp_reference.ml),
   which both functions below reproduce value for value and argmin for
   argmin.

   Both scan c' in runs of constant quotient v = c / c'. Within a run,
   Q(c, c') = r * choose2 (v+1) + (c' - r) * choose2 v with
   r = c - v * c', which simplifies to c*v + c' * (choose2 v - v*v) —
   linear in c', so a scan needs one division per run (O(sqrt c) runs)
   instead of a div/mod pair per (c, c'). Within a run Q falls as c'
   rises (the step -v(v+1)/2 is negative), so with L non-decreasing,
   L(Q(c, hi)) plus a lower bound on ub at the run's first c' bounds
   every candidate in the run from below: [force_ub] skips a run that
   bound rules out with one comparison — half of all pairs for v = 1
   alone. *)

(* Round-bound models: ub on demand. Entries start NaN and [force_ub t c]
   computes ub.(c) with an explicit stack (c0-deep chains, e.g. delta =
   0, cannot overflow the OCaml stack). The sandwich
     smin(c', 1) (1 - m) <= ub.(c') <= smin(c', 1) (1 + m)
   (the round-count optimum, see [lb_margin]) lets the scan skip every
   candidate whose lower bound L(Q) +. smin(c', 1) (1 - m) is >= the
   incumbent or above ceiling(c) = smin(c, 1) (1 + m) >= ub.(c): such a
   candidate can neither lower the incumbent nor be the first argmin.
   Only the survivors are forced — for the paper's L(q) a handful per
   entry. Run skipping needs no monotonicity check of ub: smin(., 1) is
   non-decreasing in c because Qmin_R is and float ops are monotone. *)
let force_ub t c =
  let ub = t.ub and ub_next = t.ub_next and ch2 = t.ch2 and sm = t.smin in
  (* [smin_stride t.capacity], read off the layout without the call *)
  let stride = Array.length sm / (t.capacity + 1) in
  let delta =
    match t.model with Some (Model.Linear { delta; _ }) -> delta | _ -> 0.0
  in
  let alpha =
    match t.model with Some (Model.Linear { alpha; _ }) -> alpha | _ -> 0.0
  in
  let lb_lo = 1.0 -. lb_margin and lb_hi = 1.0 +. lb_margin in
  let uf_c = t.uf_c and uf_i = t.uf_i in
  let uf_best = t.uf_best and uf_next = t.uf_next in
  Array.unsafe_set uf_c 0 c;
  Array.unsafe_set uf_i 0 1;
  Array.unsafe_set uf_best 0 infinity;
  Array.unsafe_set uf_next 0 1;
  let sp = ref 1 in
  while !sp > 0 do
    let f = !sp - 1 in
    let c = Array.unsafe_get uf_c f in
    let best = ref (Array.unsafe_get uf_best f) in
    let bnext = ref (Array.unsafe_get uf_next f) in
    let ceiling = Array.unsafe_get sm ((c * stride) + 1) *. lb_hi in
    let i = ref (Array.unsafe_get uf_i f) in
    let suspended = ref false in
    while (not !suspended) && !i < c do
      let lo = !i in
      let v = c / lo in
      let hi = min (c / v) (c - 1) in
      let step = Array.unsafe_get ch2 v - (v * v) in
      let qlo = (c * v) + (lo * step) in
      let bound =
        delta
        +. (alpha *. float_of_int (qlo + ((hi - lo) * step)))
        +. (Array.unsafe_get sm ((lo * stride) + 1) *. lb_lo)
      in
      if bound >= !best || bound > ceiling then i := hi + 1
      else begin
        let q = ref qlo in
        while (not !suspended) && !i <= hi do
          let c' = !i in
          let round = delta +. (alpha *. float_of_int !q) in
          let u = Array.unsafe_get ub c' in
          if not (Float.is_nan u) then begin
            if round +. u < !best then begin
              best := round +. u;
              bnext := c'
            end
          end
          else begin
            let low =
              round +. (Array.unsafe_get sm ((c' * stride) + 1) *. lb_lo)
            in
            if low < !best && low <= ceiling then begin
              (* a survivor: compute ub.(c') first, then resume on it *)
              Array.unsafe_set uf_i f c';
              Array.unsafe_set uf_best f !best;
              Array.unsafe_set uf_next f !bnext;
              let g = !sp in
              Array.unsafe_set uf_c g c';
              Array.unsafe_set uf_i g 1;
              Array.unsafe_set uf_best g infinity;
              Array.unsafe_set uf_next g 1;
              sp := g + 1;
              suspended := true
            end
          end;
          q := !q + step;
          incr i
        done
      end
    done;
    if not !suspended then begin
      Array.unsafe_set ub c !best;
      Array.unsafe_set ub_next c !bnext;
      t.ub_count <- t.ub_count + 1;
      sp := f
    end
  done
[@@alloc_free]

(* Every other model: the whole table, eagerly, with no pruning — such
   models have no cheap lower bound on ub. Linear models evaluate L
   inline with the exact float expression [Model.eval] uses ([delta +.
   (alpha *. float_of_int q)]), so every value is bit-identical to a
   memoized evaluation; the rest memoize L into [lq] (NaN =
   unevaluated), which this scan fills for every batch size the DP can
   later touch. *)
let eager_ub t latency_of c0 =
  let ub = t.ub and ub_next = t.ub_next and ch2 = t.ch2 and lq = t.lq in
  let lin, delta, alpha =
    match t.model with
    | Some (Model.Linear { delta; alpha }) -> (true, delta, alpha)
    | _ -> (false, 0.0, 0.0)
  in
  for c = 2 to c0 do
    let best = ref infinity and bnext = ref 1 in
    let i = ref 1 in
    while !i < c do
      let v = c / !i in
      let hi = min (c / v) (c - 1) in
      let step = Array.unsafe_get ch2 v - (v * v) in
      let q = ref ((c * v) + (!i * step)) in
      while !i <= hi do
        let qv = !q in
        let l =
          if lin then delta +. (alpha *. float_of_int qv)
          else
            let x = Array.unsafe_get lq qv in
            if Float.is_nan x then begin
              let x = latency_of qv in
              Array.unsafe_set lq qv x;
              x
            end
            else x
        in
        let cand = l +. Array.unsafe_get ub !i in
        if cand < !best then begin
          best := cand;
          bnext := !i
        end;
        q := qv + step;
        incr i
      done
    done;
    ub.(c) <- !best;
    ub_next.(c) <- !bnext
  done;
  t.ub_count <- max 0 (c0 - 1)

let rebuild_tables t latency_of mdl c0 =
  let qmax = Ints.choose2 c0 in
  let qbits = bits_for (max 1 (qmax - 1)) in
  if qbits + bits_for c0 > 62 then
    invalid_arg "Tdp.solve: collection too large to pack planner state keys";
  t.model <- Some mdl;
  t.capacity <- c0;
  t.qbits <- qbits;
  let ch2 = Array.make (c0 + 1) 0 in
  for c = 2 to c0 do
    ch2.(c) <- Ints.choose2 c
  done;
  t.ch2 <- ch2;
  (* A linear L needs its finiteness checked only at the endpoints: its
     interior values lie between L(0) and L(qmax), and NaN parameters
     surface at both. *)
  (match mdl with
  | Model.Linear _ ->
      ignore (latency_of 0 : float);
      ignore (latency_of qmax : float);
      t.lq <- [||]
  | _ -> t.lq <- Array.make (qmax + 1) Float.nan);
  t.ub_next <- Array.make (c0 + 1) 1;
  (match mdl with
  | Model.Linear { delta; alpha } when round_bound_applies ~delta ~alpha c0 ->
      let qm = qmin_table c0 in
      t.qmin <- qm;
      t.smin <- build_smin qm ~delta ~alpha c0;
      t.ub <- Array.make (c0 + 1) Float.nan;
      t.ub.(0) <- 0.0;
      t.ub.(1) <- 0.0;
      t.ub_count <- 0;
      t.uf_c <- Array.make (c0 + 1) 0;
      t.uf_i <- Array.make (c0 + 1) 0;
      t.uf_best <- Array.make (c0 + 1) 0.0;
      t.uf_next <- Array.make (c0 + 1) 0
  | _ ->
      t.qmin <- [||];
      t.smin <- [||];
      t.uf_c <- [||];
      t.uf_i <- [||];
      t.uf_best <- [||];
      t.uf_next <- [||];
      t.ub <- Array.make (c0 + 1) 0.0;
      eager_ub t latency_of c0);
  t.keys <- Array.make initial_arena 0;
  t.lat <- Array.make initial_arena 0.0;
  t.nxt <- Array.make initial_arena 0;
  t.mask <- initial_arena - 1;
  t.count <- 0;
  t.st_c <- Array.make (c0 + 1) 0;
  t.st_q <- Array.make (c0 + 1) 0;
  t.st_i <- Array.make (c0 + 1) 0;
  t.st_best <- Array.make (c0 + 1) 0.0;
  t.st_next <- Array.make (c0 + 1) 0

(* Invalidation rule: a cache is reusable iff the latency model is equal
   (Model.equal — typed structural equality, physical for Custom) and
   the instance fits under the capacity the tables were built for.
   Constrained DP states and the ub tables depend only on the model, not
   on the instance's c0, so solves at any c0 <= capacity (a budget
   sweep, Adaptive's shrinking replans) reuse everything; a model change
   or a larger c0 rebuilds from scratch. *)
let prepare t latency_of mdl c0 =
  let reusable =
    match t.model with
    | Some m -> c0 <= t.capacity && Model.equal m mdl
    | None -> false
  in
  if reusable then t.reuses <- t.reuses + 1
  else begin
    t.rebuilds <- t.rebuilds + 1;
    rebuild_tables t latency_of mdl c0
  end;
  reusable

let solve ?(metrics = Metrics.disabled) ?cache (problem : Problem.t) =
  let plan_span = Metrics.span metrics ~section:"planner" "plan_seconds" in
  Metrics.time plan_span @@ fun () ->
  (* Planner counters are pure functions of the problem (no randomness,
     no clock), so they are part of the deterministic metrics document.
     Memo hits include the sequence-reconstruction replay. *)
  let m_hits = Metrics.counter metrics ~section:"planner" "memo_hits" in
  let m_misses = Metrics.counter metrics ~section:"planner" "memo_misses" in
  let m_pruned = Metrics.counter metrics ~section:"planner" "ub_pruned_branches" in
  let m_cache_hits = Metrics.counter metrics ~section:"planner" "plan_cache_hits" in
  let m_cache_misses =
    Metrics.counter metrics ~section:"planner" "plan_cache_misses"
  in
  let latency_of = checked_latency_of "solve" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = problem.Problem.budget in
  let t, shared =
    match cache with Some t -> (t, true) | None -> (Cache.create (), false)
  in
  let reused = prepare t latency_of problem.Problem.latency c0 in
  (* Cache events are only meaningful for a caller-held cache; a private
     per-solve cache always rebuilds and records nothing. *)
  if shared then
    if reused then Metrics.incr m_cache_hits else Metrics.incr m_cache_misses;
  let count0 = t.count in
  let hits = ref 0 and misses = ref 0 and pruned = ref 0 in
  let qbits = t.qbits in
  let ub = t.ub and ch2 = t.ch2 and lq = t.lq in
  (* Linear models evaluate L inline (the exact [Model.eval] expression,
     so bit-identical to a memoized value); other models read the [lq]
     table the build filled. The branch is perfectly predicted — one
     direction for the whole solve. *)
  let lin, lin_d, lin_a =
    match problem.Problem.latency with
    | Model.Linear { delta; alpha } -> (true, delta, alpha)
    | _ -> (false, 0.0, 0.0)
  in
  (* The round-count bound (linear models with delta, alpha >= 0; [smin]
     is [||] otherwise, and only then is [ub] filled on demand). It also
     gates run-level pruning in the DP scan, which needs L non-decreasing
     and a lower bound on ub that is non-decreasing in c' — smin(c', 1)
     (1 - m). *)
  let qm = t.qmin and sm = t.smin and stride = smin_stride t.capacity in
  let lb_on = Array.length sm > 0 in
  let lb_lo = 1.0 -. lb_margin and lb_hi = 1.0 +. lb_margin in
  let st_c = t.st_c and st_q = t.st_q and st_i = t.st_i in
  let st_best = t.st_best and st_next = t.st_next in
  let sp = ref 0 in
  (* [ret_lat] escapes into [run_stack], so a float [ref] cell would not
     be unboxed and every settled state would box a float on the store;
     a one-element float array stores unboxed. Int/bool refs only store
     immediates, so escaping is harmless for them. *)
  let ret_lat = Array.make 1 0.0 in
  let ret_next = ref 0 in
  let returning = ref false in
  (* The explicit-stack DFS: frames visit candidates c' = 1..c-1 in the
     exact order, with the exact guards and strict-< tie-breaks, of the
     recursive formulation, so values and decisions are bit-identical
     to it (and so are the counters, unless the round-count bound
     skips children). A frame suspends when it needs an unsettled
     child state; a settled frame writes the arena and resumes its
     parent through [ret_lat]/[ret_next]. *)
  let run_stack () =
    while !sp > 0 do
      let f = !sp - 1 in
      let c = Array.unsafe_get st_c f in
      let q = Array.unsafe_get st_q f in
      let best = ref (Array.unsafe_get st_best f) in
      let bnext = ref (Array.unsafe_get st_next f) in
      (* The frame's own optimum, from above: the exact OL(c, q) plus the
         margin. No candidate whose lower bound exceeds it can be the
         frame's minimum. *)
      let ceiling =
        if lb_on then
          Array.unsafe_get sm ((c * stride) + rounds_needed qm c q)
          *. lb_hi
        else infinity
      in
      let i = ref 1 in
      if !returning then begin
        (* the child the frame suspended on just settled *)
        let c' = Array.unsafe_get st_i f in
        let qv = T.questions c c' in
        let round =
          if lin then lin_d +. (lin_a *. float_of_int qv)
          else Array.unsafe_get lq qv
        in
        let total = round +. Array.unsafe_get ret_lat 0 in
        if total < !best then begin
          best := total;
          bnext := c'
        end;
        returning := false;
        i := c' + 1
      end;
      let suspended = ref false in
      (* The candidate scan steps Q(c, c') through constant-quotient
         runs, exactly like the table build: one division per run, an
         add per candidate, no Q table. A suspension exits mid-run; the
         resume recomputes the run containing the next candidate. *)
      while (not !suspended) && !i < c do
        let lo = !i in
        let v = c / lo in
        let hi = min (c / v) (c - 1) in
        let step = Array.unsafe_get ch2 v - (v * v) in
        let qlo = (c * v) + (lo * step) in
        let qhi = qlo + ((hi - lo) * step) in
        (* g(i) = rem_i - (c' - 1) is affine and non-decreasing in i
           (slope -step - 1 >= 0), so if the run's last candidate fails
           the Theorem 1 guard, every candidate does: the whole run is
           infeasible — skip it, exactly as the per-pair scan would
           (no value, no counter). *)
        if q - qhi - hi + 1 < 0 then i := hi + 1
        else if
          lb_on
          &&
          let l_hi = lin_d +. (lin_a *. float_of_int qhi) in
          let s = Array.unsafe_get sm ((lo * stride) + 1) in
          let low = l_hi +. (s *. lb_lo) in
          low >= !best || low > ceiling
          || l_hi +. (s *. lb_hi) > ceiling
             && begin
                  (* Inside the 2m band the exact ub.(lo) decides, so the
                     runs skipped — and hence the counters — stay those
                     of the eager table's exact test. Sound with no
                     monotonicity check of ub: the real OL is
                     non-decreasing in c', and the margin dwarfs the
                     rounding between it and any float ub.(c'). *)
                  if Float.is_nan (Array.unsafe_get ub lo) then
                    force_ub t lo;
                  l_hi +. Array.unsafe_get ub lo > ceiling
                end
        then begin
          (* L(Q) is minimal at hi and the ub bound at lo, so every
             guard-passing candidate in the run has round +. ub.(c') at
             least that bound: either >= best, so the per-pair scan
             would prune each one, or above the frame's optimum (the
             round-count ceiling), so none of them can be its minimum.
             Count the guard-passing ones in closed form, as the
             per-pair scan would count the branches it prunes. *)
          let g_lo = q - qlo - lo + 1 in
          let s = -step - 1 in
          let cnt =
            if s = 0 || g_lo >= 0 then hi - lo + 1
            else hi - (lo + ((-g_lo + s - 1) / s)) + 1
          in
          pruned := !pruned + cnt;
          i := hi + 1
        end
        else begin
        let qrun = ref qlo in
        while (not !suspended) && !i <= hi do
          let c' = !i in
          let qq = !qrun in
          let rem = q - qq in
          (* Theorem 1: the tail needs at least c' - 1 questions; and no
             tail can beat its unconstrained optimum. *)
          if rem >= c' - 1 then begin
            let round =
              if lin then lin_d +. (lin_a *. float_of_int qq)
              else Array.unsafe_get lq qq
            in
            if c' = 1 || rem >= Array.unsafe_get ch2 c' then begin
              (* The tail resolves through ub (0 for c' = 1). A missing
                 entry is forced only if its lower bound could beat the
                 incumbent; otherwise it stays NaN and the comparison
                 below fails, exactly as the entry's value would. *)
              if
                Float.is_nan (Array.unsafe_get ub c')
                && round +. (Array.unsafe_get sm ((c' * stride) + 1) *. lb_lo)
                   < !best
              then force_ub t c';
              let total = round +. Array.unsafe_get ub c' in
              if total < !best then begin
                best := total;
                bnext := c'
              end
              else incr pruned
            end
            else begin
              (* No tail beats its unconstrained optimum: the child needs
                 round +. ub.(c') < best. A missing entry is decided by
                 its sandwich and forced only inside the 2m band. The
                 round-count test runs before any forcing: it prunes
                 whatever the ub test says, and both prunes count the
                 same. *)
              let u = Array.unsafe_get ub c' in
              let known = not (Float.is_nan u) in
              if
                if known then round +. u >= !best
                else
                  round +. (Array.unsafe_get sm ((c' * stride) + 1) *. lb_lo)
                  >= !best
              then incr pruned
              else if
                lb_on
                &&
                let low =
                  round
                  +. Array.unsafe_get sm
                       ((c' * stride) + rounds_needed qm c' rem)
                     *. lb_lo
                in
                low >= !best || low > ceiling
              then
                (* The round-count bound rules the child out: its DP value
                   is at least [low] (the margin covers the float sums'
                   rounding), so it either cannot beat the incumbent
                   under strict < or lies strictly above the frame's
                   optimum — never the first argmin. Not probed, not
                   settled; value and decision stay bit-identical. *)
                incr pruned
              else if
                (not known)
                && round +. (Array.unsafe_get sm ((c' * stride) + 1) *. lb_hi)
                   >= !best
                && begin
                     force_ub t c';
                     round +. Array.unsafe_get ub c' >= !best
                   end
              then incr pruned
              else begin
                let k = (c' lsl qbits) lor rem in
                let s = find_slot t.keys t.mask k in
                if Array.unsafe_get t.keys s = k then begin
                  incr hits;
                  let total = round +. Array.unsafe_get t.lat s in
                  if total < !best then begin
                    best := total;
                    bnext := c'
                  end
                end
                else begin
                  incr misses;
                  Array.unsafe_set st_i f c';
                  Array.unsafe_set st_best f !best;
                  Array.unsafe_set st_next f !bnext;
                  let g = !sp in
                  Array.unsafe_set st_c g c';
                  Array.unsafe_set st_q g rem;
                  Array.unsafe_set st_best g infinity;
                  Array.unsafe_set st_next g 0;
                  sp := g + 1;
                  suspended := true
                end
              end
            end
          end;
          qrun := qq + step;
          incr i
        done
        end
      done;
      if not !suspended then begin
        (* frame complete: settle the state and resume the parent *)
        if 2 * (t.count + 1) > Array.length t.keys then (grow [@alloc_cold]) t;
        let k = (c lsl qbits) lor q in
        let s = find_slot t.keys t.mask k in
        Array.unsafe_set t.keys s k;
        Array.unsafe_set t.lat s !best;
        Array.unsafe_set t.nxt s !bnext;
        t.count <- t.count + 1;
        sp := f;
        Array.unsafe_set ret_lat 0 !best;
        ret_next := !bnext;
        returning := true
      end
    done
  [@@alloc_free]
  in
  let q0 = clamp_budget c0 b in
  let latency =
    if c0 = 1 then 0.0
    else if q0 >= ch2.(c0) then begin
      if Float.is_nan ub.(c0) then force_ub t c0;
      ub.(c0)
    end
    else begin
      let k = (c0 lsl qbits) lor q0 in
      let s = find_slot t.keys t.mask k in
      if Array.unsafe_get t.keys s = k then begin
        incr hits;
        Array.unsafe_get t.lat s
      end
      else begin
        incr misses;
        st_c.(0) <- c0;
        st_q.(0) <- q0;
        st_best.(0) <- infinity;
        st_next.(0) <- 0;
        sp := 1;
        returning := false;
        run_stack ();
        ret_lat.(0)
      end
    end
  in
  (* Reconstruct the sequence by replaying the memoized decisions; every
     constrained state on the optimal path was settled above. *)
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let next =
        if q >= Array.unsafe_get ch2 c then begin
          (* computed already: the DP, or the entry that chose c,
             compared this tail exactly; the check only keeps a NaN
             from ever yielding a default next count *)
          if Float.is_nan ub.(c) then force_ub t c;
          Array.unsafe_get t.ub_next c
        end
        else begin
          let k = (c lsl qbits) lor q in
          let s = find_slot t.keys t.mask k in
          assert (Array.unsafe_get t.keys s = k);
          incr hits;
          Array.unsafe_get t.nxt s
        end
      in
      let qq = T.questions c next in
      rebuild next (clamp_budget next (q - qq)) (next :: acc)
    end
  in
  let sequence = rebuild c0 q0 [ c0 ] in
  let allocation = Allocation.of_count_sequence sequence in
  (* [states_visited] counts the states this solve settled (every miss
     settles exactly one): on a fresh solve at most the seed solver's
     memo size (equal outside the round-count bound); on a cache-warm
     solve it is the incremental work only. *)
  let new_states = t.count - count0 in
  Metrics.incr (Metrics.counter metrics ~section:"planner" "plans");
  Metrics.add m_hits !hits;
  Metrics.add m_misses !misses;
  Metrics.add m_pruned !pruned;
  Metrics.add
    (Metrics.counter metrics ~section:"planner" "states_visited")
    new_states;
  {
    sequence;
    allocation;
    latency;
    questions_used = Allocation.questions_total allocation;
    states_visited = new_states;
  }

let optimal_latency problem = (solve problem).latency
