open Crowdmax_util
module Metrics = Crowdmax_obs.Metrics

type config = {
  post_overhead : float;
  base_rate : float;
  attract_per_question : float;
  visibility_exponent : float;
  burst_seconds : float;
  tail_rate : float;
  patience_mean : float;
  service : Worker.service_model;
  diurnal_amplitude : float;
  diurnal_period : float;
  diurnal_phase : float;
}

let default_config =
  {
    post_overhead = 150.0;
    base_rate = 0.05;
    attract_per_question = 0.0007;
    visibility_exponent = 1.1;
    burst_seconds = 300.0;
    tail_rate = 0.02;
    patience_mean = 8.0;
    service = Worker.default_service;
    diurnal_amplitude = 0.0;
    diurnal_period = 86_400.0;
    diurnal_phase = 0.0;
  }

type t = { cfg : config }

(* Config validation happens at construction, not inside the event
   loop, where a bad field fails silently or never: a NaN or infinite
   [patience_mean] makes every patience draw meaningless, a NaN rate or
   exponent yields plausible-looking latencies, and a NaN [sigma] only
   surfaces deep in the event calendar. A [diurnal_amplitude >= 1.0]
   drives the modulation factor [1 + a*sin(...)] negative for part of
   every period, which turns the thinning acceptance probability in
   [arrival_after] negative — Bernoulli draws then silently never
   accept in the trough and the arrival stream freezes without any
   error. Anyone wanting "market closes overnight" semantics needs an
   explicit zero-clamped rate, not a sign flip. *)
let create ?(config = default_config) () =
  let c = config in
  let require ok field rule =
    if not ok then
      invalid_arg (Printf.sprintf "Platform.create: %s must be %s" field rule)
  in
  let non_negative x = Float.is_finite x && x >= 0.0 in
  require (non_negative c.post_overhead) "post_overhead" "finite and >= 0";
  require (non_negative c.base_rate) "base_rate" "finite and >= 0";
  require
    (non_negative c.attract_per_question)
    "attract_per_question" "finite and >= 0";
  require
    (non_negative c.visibility_exponent)
    "visibility_exponent" "finite and >= 0";
  require (non_negative c.burst_seconds) "burst_seconds" "finite and >= 0";
  require
    (non_negative c.tail_rate && c.tail_rate > 0.0)
    "tail_rate" "finite and > 0";
  require
    (non_negative c.patience_mean && c.patience_mean >= 1.0)
    "patience_mean" "finite and >= 1";
  let { Worker.median_seconds; sigma } = c.service in
  require (non_negative sigma) "service.sigma" "finite and >= 0";
  require
    (non_negative median_seconds
    && (Float.equal sigma 0.0 || median_seconds > 0.0))
    "service.median_seconds" "finite and > 0 (>= 0 when sigma = 0)";
  let a = c.diurnal_amplitude in
  if Float.is_nan a || a < 0.0 || a >= 1.0 then
    invalid_arg "Platform.create: diurnal_amplitude must be in [0, 1)";
  if a > 0.0 then begin
    if
      Float.is_nan c.diurnal_period
      || (not (Float.is_finite c.diurnal_period))
      || c.diurnal_period <= 0.0
    then invalid_arg "Platform.create: diurnal_period must be finite and > 0";
    if Float.is_nan c.diurnal_phase then
      invalid_arg "Platform.create: diurnal_phase must not be NaN"
  end;
  { cfg = config }

let config t = t.cfg

(* One simulated worker sitting: how many questions they answer before
   switching tasks — geometric on {1, 2, ...} with success probability
   p = 1 / patience_mean. Drawn by inversion from one uniform U on
   (0, 1]: k = 1 + floor (log U / log (1 - p)), since
   P(k > n) = P(U <= (1 - p)^n) = (1 - p)^n. [log_q] is log1p (-p),
   hoisted per batch; at p = 1 it is -infinity and every sitting is 1.
   The quotient is non-negative (or -0.), so truncation is the floor;
   it is capped at 1e15 because a tiny p overflows it to infinity. *)
let draw_patience rng ~log_q =
  let r = log (1.0 -. Rng.float rng 1.0) /. log_q in
  1 + int_of_float (if r < 1e15 then r else 1e15)
[@@alloc_free]

(* Time-of-day modulation of worker availability. *)
let diurnal_factor cfg t =
  if cfg.diurnal_amplitude <= 0.0 then 1.0
  else
    1.0
    +. cfg.diurnal_amplitude
       *. sin (2.0 *. Float.pi *. ((t +. cfg.diurnal_phase) /. cfg.diurnal_period))
[@@alloc_free]

let burst_rate_of cfg q =
  cfg.base_rate
  +. (cfg.attract_per_question *. (float_of_int q ** cfg.visibility_exponent))
[@@alloc_free]

(* Arrival process: Poisson with rate [burst_rate q] while the batch is
   visible, then [tail_rate] forever, both scaled by the diurnal factor.
   Returns the next arrival strictly after [t]. The steady case keeps
   the direct exponential draws; the diurnal case uses thinning against
   the peak-rate envelope. Both paths clamp the start time to
   [post_overhead]: the arrival rate is zero before the batch is
   visible, so for the steady case the clamp is where the first draw
   begins, and for the thinning case starting any earlier would only
   burn rejected draws across an interval that cannot produce an
   arrival. *)
let arrival_after rng cfg q t =
  let burst_rate = burst_rate_of cfg q in
  let burst_end = cfg.post_overhead +. cfg.burst_seconds in
  let t = if t >= cfg.post_overhead then t else cfg.post_overhead in
  if cfg.diurnal_amplitude <= 0.0 then begin
    if t < burst_end then begin
      let dt = Rng.exponential rng (1.0 /. burst_rate) in
      if t +. dt <= burst_end then t +. dt
      else begin
        (* Memorylessness: restart the draw at the tail rate from the
           moment the burst ends. *)
        let dt = Rng.exponential rng (1.0 /. cfg.tail_rate) in
        burst_end +. dt
      end
    end
    else t +. Rng.exponential rng (1.0 /. cfg.tail_rate)
  end
  else begin
    let envelope =
      (if burst_rate >= cfg.tail_rate then burst_rate else cfg.tail_rate)
      *. (1.0 +. cfg.diurnal_amplitude)
    in
    (* Thinning against the peak-rate envelope, de-closured: the old
       [base]/[rec thin] pair allocated two closures per call. The
       candidate time lives in a local non-escaping ref (unboxed) and
       each iteration makes the same exponential-then-bernoulli draw
       pair in the same order. *)
    let tt = ref t in
    let accepted = ref false in
    while not !accepted do
      tt := !tt +. Rng.exponential rng (1.0 /. envelope);
      let u = !tt in
      let base =
        if u < cfg.post_overhead then 0.0
        else if u < burst_end then burst_rate
        else cfg.tail_rate
      in
      let rate = base *. diurnal_factor cfg u in
      if Rng.bernoulli rng (rate /. envelope) then accepted := true
    done;
    !tt
  end
[@@alloc_free]

let next_arrival t rng ~q ~after = arrival_after rng t.cfg q after

type report = {
  latency : float;
  last_completion : float;
  completed : int;
  in_flight : int;
  unassigned : int;
  deadline_hit : bool;
}

(* Fixed arrival-time buckets (simulated seconds): the first bound sits
   just past [post_overhead], the rest trace the burst window and the
   tail. Fixed bounds keep the exported histogram schema-stable. The
   spec is immutable and built once at module load — registration in
   the per-round hot path shares it instead of allocating and
   revalidating a fresh bounds array per simulate call. *)
let arrival_bucket_spec =
  Metrics.bucket_spec
    [| 160.0; 180.0; 210.0; 240.0; 300.0; 420.0; 600.0; 900.0; 1800.0 |]

(* --- the marketplace event loop -------------------------------------------

   One worker marketplace serving [nq] batches ("queries") posted at
   time 0: [simulate] is its one-query case, [simulate_shared] the fleet
   case, and there is no other event loop. One arrival stream is driven
   by the total visible question count; a batch stays visible until its
   query is withdrawn. A lone query draws nothing to pick, and under
   [Fifo] with no deadlines k queries are draw-for-draw one merged batch.

   An event strictly past a live query's deadline withdraws it: its
   unassigned questions leave the market, later completions of its
   in-flight ones are discarded (they stay in its [in_flight] bucket),
   and the worker, patience permitting, moves on. Stop rule: if the
   sweep leaves no live query, the event that triggered it is neither
   processed nor counted.

   A query's raw questions credit its slots round-robin: the question
   assigned i-th credits slot i mod w, where w is the length of the
   query's tally (the engine's raw-slot layout: repetitions interleave
   across the posted questions), or its batch size when the caller
   tallies nothing, so that the slot is the index within the query. A
   per-query counter that wraps at w hands the slots out at
   assignment, the slot travels in the completion event, and a counted
   completion is one increment of the caller's tally: no division and
   no callback per answer.

   Per-call arrays live in the scratch, scalar ints in its mutable
   fields and scalar floats in [loop_state], an all-float (unboxed)
   record. Helpers read the current event time from [fs.now] rather
   than take a float argument, so calling them boxes nothing. *)

type pick_policy = Fifo | Proportional

type loop_state = {
  mutable arr_time : float;  (* the one pending worker arrival *)
  mutable now : float;  (* the event being processed *)
  mutable next_deadline : float;  (* earliest deadline of a live query *)
  mutable burst_mean : float;  (* 1 / burst rate of the visible total *)
  mutable tail_mean : float;
}

(* Per-query lifecycle, in [scratch.status]. *)
let live = 0 and finished = 1 and withdrawn = 2

(* Reusable simulation buffers. [t] itself stays immutable — one
   platform value is shared by every run of an engine config, across
   domains under parallel replication — so mutable storage lives in a
   per-caller scratch handle instead. Per-query arrays hold [nq]
   entries. *)
type scratch = {
  cal : Event_calendar.t;  (* in-flight completions: (slot, patience) *)
  fs : loop_state;
  mutable nq : int;
  mutable qs : int array;  (* posted size *)
  mutable deadlines : float array;
  mutable next_q : int array;  (* assignment cursor *)
  mutable slot : int array;  (* the next slot to hand out, below [wrap] *)
  mutable wrap : int array;  (* slots per query *)
  mutable answered : int array;
  mutable last_time : float array;  (* last counted completion *)
  mutable status : int array;
  (* The pickable queries (live, with unassigned questions) in index
     order, and the prefix sums of their posted sizes. *)
  mutable pick_idx : int array;
  mutable pick_cum : int array;
  mutable pick_count : int;
  mutable pick_weight : int;  (* their total posted size *)
  mutable remaining : int;  (* live queries *)
  mutable visible : int;  (* posted questions of unwithdrawn queries *)
  mutable unassigned_total : int;  (* over live queries *)
  (* The log-normal service parameters: fixed per call, so they sit
     here, stored boxed, rather than in [fs] — passing them to the draw
     then never boxes, even where the draw is not inlined. *)
  mutable mu : float;
  mutable sigma : float;
}

let scratch () =
  let fs =
    { arr_time = 0.0; now = 0.0; next_deadline = 0.0; burst_mean = 0.0;
      tail_mean = 0.0 }
  in
  { cal = Event_calendar.create (); fs; nq = 0; qs = [||]; deadlines = [||];
    next_q = [||]; slot = [||]; wrap = [||]; answered = [||];
    last_time = [||]; status = [||]; pick_idx = [||]; pick_cum = [||];
    pick_count = 0; pick_weight = 0; remaining = 0; visible = 0;
    unassigned_total = 0; mu = 0.0; sigma = 0.0 }

(* Size the per-query arrays for [nq] queries; the caller then fills
   [qs] and [deadlines]. *)
let reserve_queries s nq =
  if Array.length s.qs < nq then begin
    let n = max 8 (2 * nq) in
    s.qs <- Array.make n 0;
    s.deadlines <- Array.make n 0.0;
    s.next_q <- Array.make n 0;
    s.slot <- Array.make n 0;
    s.wrap <- Array.make n 0;
    s.answered <- Array.make n 0;
    s.last_time <- Array.make n 0.0;
    s.status <- Array.make n live;
    s.pick_idx <- Array.make n 0;
    s.pick_cum <- Array.make n 0
  end;
  s.nq <- nq

let recompute_next_deadline s =
  let fs = s.fs in
  fs.next_deadline <- Float.infinity;
  for i = 0 to s.nq - 1 do
    if s.status.(i) = live && s.deadlines.(i) < fs.next_deadline then
      fs.next_deadline <- s.deadlines.(i)
  done
[@@alloc_free]

(* Rebuild the pickable list and its prefix sums. A query never becomes
   pickable again once it stops, so this runs only when one stops (it
   is fully assigned or withdrawn): at most twice per query and run. *)
let rebuild_pickable s =
  let n = ref 0 and w = ref 0 in
  for i = 0 to s.nq - 1 do
    if s.status.(i) = live && s.next_q.(i) < s.qs.(i) then begin
      w := !w + s.qs.(i);
      s.pick_idx.(!n) <- i;
      s.pick_cum.(!n) <- !w;
      incr n
    end
  done;
  s.pick_count <- !n;
  s.pick_weight <- !w
[@@alloc_free]

(* Withdraw every live query whose deadline [fs.now] has passed. The
   sweep runs only when the earliest live deadline has passed, so it
   always withdraws one. *)
let withdraw_sweep cfg s =
  let fs = s.fs in
  for i = 0 to s.nq - 1 do
    if s.status.(i) = live && fs.now > s.deadlines.(i) then begin
      let q = s.qs.(i) in
      s.status.(i) <- withdrawn;
      s.remaining <- s.remaining - 1;
      s.visible <- s.visible - q;
      s.unassigned_total <- s.unassigned_total - (q - s.next_q.(i));
      if s.visible > 0 then fs.burst_mean <- 1.0 /. burst_rate_of cfg s.visible
    end
  done;
  rebuild_pickable s;
  recompute_next_deadline s
[@@alloc_free]

(* Replace [fs.arr_time] by the next worker arrival after it: the draws
   of [arrival_after] for the visible total, with the steady path
   written out over the hoisted constants. *)
let[@inline] advance_arrival cfg s rng =
  let fs = s.fs in
  let post = cfg.post_overhead in
  let burst_end = post +. cfg.burst_seconds in
  let t = fs.arr_time in
  fs.arr_time <-
    (if cfg.diurnal_amplitude > 0.0 then arrival_after rng cfg s.visible t
     else begin
       let t = if t >= post then t else post in
       if t < burst_end then begin
         let dt = Rng.exponential rng fs.burst_mean in
         if t +. dt <= burst_end then t +. dt
         else burst_end +. Rng.exponential rng fs.tail_mean
       end
       else t +. Rng.exponential rng fs.tail_mean
     end)
[@@alloc_free]

(* The [Proportional] pick among two or more pickable queries: one
   [Rng.int] over their posted sizes, then the first pickable query
   whose prefix sum exceeds the draw — found by counting, without a
   branch, the prefix sums at or below it. The last prefix sum is the
   total, always above the draw, so it is not read. *)
let pick_proportional s rng =
  let r = Rng.int rng s.pick_weight in
  let j = ref 0 in
  for k = 0 to s.pick_count - 2 do
    j := !j + Bool.to_int (Array.unsafe_get s.pick_cum k <= r)
  done;
  Array.unsafe_get s.pick_idx !j
[@@alloc_free]

(* Run the market over the [s.nq] queries whose sizes and deadlines the
   caller loaded into [s], leaving each query's outcome there for
   [report_of]. [tallies] is empty (nothing tallied) or holds one
   non-empty array per non-empty query. Answers lost to a withdrawal
   are counted in [discards]: [simulate_shared]'s registry, while
   [simulate] passes the disabled one (a lone query never discards —
   the stop rule ends its run first) and so registers no shared-only
   instrument. Metrics record simulated quantities only and draw
   nothing, so they are deterministic given the rng, and a no-op branch
   when disabled. *)
let run_market t rng s ~metrics ~discards ~pick ~tallies ~on_complete =
  let cfg = t.cfg in
  Metrics.add (Metrics.counter metrics ~section:"platform" "batches") s.nq;
  let counting = Array.length tallies > 0 in
  s.remaining <- s.nq;
  s.visible <- 0;
  for i = 0 to s.nq - 1 do
    s.next_q.(i) <- 0;
    s.slot.(i) <- 0;
    s.wrap.(i) <- (if counting then Array.length tallies.(i) else s.qs.(i));
    s.answered.(i) <- 0;
    s.last_time.(i) <- cfg.post_overhead;
    s.status.(i) <- (if s.qs.(i) = 0 then finished else live);
    if s.qs.(i) = 0 then s.remaining <- s.remaining - 1;
    s.visible <- s.visible + s.qs.(i)
  done;
  let total = s.visible in
  if total > 0 then begin
    let m_events = Metrics.counter metrics ~section:"platform" "events_drained" in
    let m_arrivals = Metrics.counter metrics ~section:"platform" "worker_arrivals" in
    let m_completions = Metrics.counter metrics ~section:"platform" "completions" in
    let m_discarded =
      Metrics.counter discards ~section:"platform" "shared_discarded_answers"
    in
    let m_peak = Metrics.peak metrics ~section:"platform" "in_flight_peak" in
    let m_arrival_h =
      Metrics.histogram metrics ~section:"platform" "arrival_seconds"
        ~buckets:arrival_bucket_spec
    in
    (* [observe] is an out-of-line call taking a boxed float, so the
       loop tests this flag first: with metrics off, an arrival boxes
       nothing. *)
    let observe_arrivals = Metrics.enabled metrics in
    (* A completion event carries its question as one int: its slot,
       shifted past [qbits] low bits holding the query. A slot is below
       its query's batch size, so the packing cannot overflow. *)
    let qbits = Ints.log2_ceil s.nq in
    let qmask = (1 lsl qbits) - 1 in
    let cal = s.cal in
    Event_calendar.clear cal;
    s.unassigned_total <- total;
    rebuild_pickable s;
    recompute_next_deadline s;
    (* Per-call constants, hoisted: the burst mean (recomputed only when
       a withdrawal shrinks the visible total), the tail mean, the
       log-normal parameters and the patience probability. *)
    let fs = s.fs in
    fs.burst_mean <- 1.0 /. burst_rate_of cfg total;
    fs.tail_mean <- 1.0 /. cfg.tail_rate;
    s.sigma <- cfg.service.Worker.sigma;
    s.mu <- (if s.sigma <= 0.0 then 0.0 else Worker.service_mu cfg.service);
    let log_q = Float.log1p (-.(1.0 /. cfg.patience_mean)) in
    fs.arr_time <- 0.0;
    advance_arrival cfg s rng;
    (* The arrival stream is a scalar chain — exactly one future arrival
       exists at a time — so it stays out of the calendar: the next
       event is the earlier of the pending arrival and the earliest
       completion, the arrival winning (measure-zero) exact ties. Once
       no question is left to assign, the chain dies without drawing a
       successor. *)
    let arrivals_alive = ref true in
    (* A processed completion stays at the calendar's root until the
       freed worker's next question is known: that question replaces
       it in one sift ([replace_min]), or, when the worker takes none,
       [remove_min] drops it. *)
    let popping = ref false in
    (* The loop indexes the per-query arrays only with query indices
       below [nq], within the sizes reserved above, and a tally only
       with slots below its length, so those accesses skip the bounds
       check. [@alloc_free] puts the whole loop under the R6 lint gate:
       every call resolves to an annotated function, and the one
       caller-supplied escape hatch (the [on_complete] observer) is
       [@alloc_cold]. *)
    (while s.remaining > 0 do
       (* Each event frees a worker at [fs.now] who may give [free] more
          answers: a fresh arrival's patience, or what a completing
          worker has left. *)
       let free =
         if
           !arrivals_alive
           && (Event_calendar.is_empty cal
              || fs.arr_time <= Event_calendar.min_time cal)
         then begin
           fs.now <- fs.arr_time;
           if fs.now > fs.next_deadline then withdraw_sweep cfg s;
           (* With no live query left, nothing is unassigned either. *)
           if s.unassigned_total > 0 then begin
             Metrics.incr m_events;
             Metrics.incr m_arrivals;
             if observe_arrivals then Metrics.observe m_arrival_h fs.now;
             advance_arrival cfg s rng;
             draw_patience rng ~log_q
           end
           else begin
             arrivals_alive := false;
             0
           end
         end
         else if Event_calendar.is_empty cal then begin
           (* Defensive only — unreachable while tail_rate > 0: a live
              query needs an in-flight completion or a live arrival. *)
           s.remaining <- 0;
           0
         end
         else begin
           let time = Event_calendar.min_time cal in
           fs.now <- time;
           if time > fs.next_deadline then withdraw_sweep cfg s;
           if s.remaining = 0 then 0
           else begin
             let question = Event_calendar.min_a cal in
             let patience = Event_calendar.min_b cal in
             popping := true;
             Metrics.incr m_events;
             let qi = question land qmask in
             if Array.unsafe_get s.status qi = withdrawn then
               Metrics.incr m_discarded
             else begin
               Metrics.incr m_completions;
               let n = Array.unsafe_get s.answered qi + 1 in
               Array.unsafe_set s.answered qi n;
               if time > Array.unsafe_get s.last_time qi then
                 Array.unsafe_set s.last_time qi time;
               let slot = question lsr qbits in
               if counting then begin
                 let tally = Array.unsafe_get tallies qi in
                 Array.unsafe_set tally slot (Array.unsafe_get tally slot + 1)
               end;
               (match on_complete with
               | Some observe -> (observe [@alloc_cold]) ~query:qi slot time
               | None -> ());
               if n = Array.unsafe_get s.qs qi then begin
                 Array.unsafe_set s.status qi finished;
                 s.remaining <- s.remaining - 1;
                 recompute_next_deadline s
               end
             end;
             patience
           end
         end
       in
       (* The freed worker takes a question, if any is left: written
          once, here, rather than as a call from both event kinds. A
          lone pickable query is the first under either policy, so only
          a contested [Proportional] pick draws. *)
       if free > 0 && s.unassigned_total > 0 then begin
         let qi =
           match pick with
           | Proportional when s.pick_count > 1 -> pick_proportional s rng
           | Fifo | Proportional -> Array.unsafe_get s.pick_idx 0
         in
         let assigned = Array.unsafe_get s.next_q qi + 1 in
         Array.unsafe_set s.next_q qi assigned;
         if assigned = Array.unsafe_get s.qs qi then rebuild_pickable s;
         s.unassigned_total <- s.unassigned_total - 1;
         let slot = Array.unsafe_get s.slot qi in
         let next = slot + 1 in
         Array.unsafe_set s.slot qi
           (if next = Array.unsafe_get s.wrap qi then 0 else next);
         let sv =
           if s.sigma <= 0.0 then cfg.service.Worker.median_seconds
           else Rng.lognormal rng ~mu:s.mu ~sigma:s.sigma
         in
         let time = fs.now +. sv in
         let question = (slot lsl qbits) lor qi in
         if !popping then begin
           Event_calendar.replace_min cal ~time question (free - 1);
           popping := false
         end
         else Event_calendar.add cal ~time question (free - 1);
         (* Every assigned question waits in the calendar until popped. *)
         Metrics.record_peak m_peak (Event_calendar.length cal)
       end
       else if !popping then begin
         Event_calendar.remove_min cal;
         popping := false
       end
     done)
    [@alloc_free]
  end

(* Query [i]'s outcome after [run_market]. A withdrawn query reports
   its deadline as latency (the caller waited that long) but keeps its
   unclipped last completion; an empty one costs the visibility time,
   deadline-clamped. *)
let report_of cfg s i =
  let q = s.qs.(i) and deadline = s.deadlines.(i) in
  let hit = s.status.(i) = withdrawn in
  if q = 0 then
    let latency = Float.min cfg.post_overhead deadline in
    { latency; last_completion = latency; completed = 0; in_flight = 0;
      unassigned = 0; deadline_hit = deadline < cfg.post_overhead }
  else
    { latency = (if hit then deadline else s.last_time.(i));
      last_completion = s.last_time.(i);
      completed = s.answered.(i);
      in_flight = s.next_q.(i) - s.answered.(i);
      unassigned = q - s.next_q.(i);
      deadline_hit = hit }

let check_deadline d =
  if Float.is_nan d || d <= 0.0 then invalid_arg "Platform: deadline must be > 0"

let check_tally q tally =
  if q > 0 && Array.length tally = 0 then
    invalid_arg "Platform: empty tally for a non-empty batch"

let simulate ?(deadline = Float.infinity) ?(metrics = Metrics.disabled)
    ?scratch:scr ?tally ?on_complete t rng q =
  if q < 0 then invalid_arg "Platform: negative batch size";
  check_deadline deadline;
  let tallies =
    match tally with
    | None -> [||]
    | Some tally ->
        check_tally q tally;
        [| tally |]
  in
  let s = match scr with Some s -> s | None -> scratch () in
  reserve_queries s 1;
  s.qs.(0) <- q;
  s.deadlines.(0) <- deadline;
  let on_complete =
    Option.map (fun f ~query:(_ : int) slot time -> f slot time) on_complete
  in
  run_market t rng s ~metrics ~discards:Metrics.disabled ~pick:Fifo ~tallies
    ~on_complete;
  report_of t.cfg s 0

let batch_latency ?deadline ?metrics ?scratch t rng q =
  (simulate ?deadline ?metrics ?scratch t rng q).latency

let simulate_shared ?deadlines ?(metrics = Metrics.disabled) ?scratch:scr
    ?tallies ?on_complete t rng ~pick qs =
  let nq = Array.length qs in
  if nq = 0 then invalid_arg "Platform.simulate_shared: no queries";
  Array.iter (fun q -> if q < 0 then invalid_arg "Platform: negative batch size") qs;
  let tallies =
    match tallies with
    | None -> [||]
    | Some tallies ->
        if Array.length tallies <> nq then
          invalid_arg "Platform.simulate_shared: tallies length mismatch";
        Array.iter2 check_tally qs tallies;
        tallies
  in
  let s = match scr with Some s -> s | None -> scratch () in
  reserve_queries s nq;
  Array.blit qs 0 s.qs 0 nq;
  (match deadlines with
  | None -> Array.fill s.deadlines 0 nq Float.infinity
  | Some d ->
      if Array.length d <> nq then
        invalid_arg "Platform.simulate_shared: deadlines length mismatch";
      Array.iter check_deadline d;
      Array.blit d 0 s.deadlines 0 nq);
  Metrics.incr (Metrics.counter metrics ~section:"platform" "shared_calls");
  run_market t rng s ~metrics ~discards:metrics ~pick ~tallies ~on_complete;
  Array.init nq (report_of t.cfg s)
