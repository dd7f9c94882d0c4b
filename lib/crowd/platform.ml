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

(* Reusable simulation buffers. [t] itself stays immutable — one
   platform value is shared by every run of an engine config, across
   domains under parallel replication — so mutable storage lives in a
   per-caller scratch handle instead. *)
type scratch = {
  cal : Event_calendar.t;  (* in-flight completion events *)
  mutable qbuf : int array;  (* answer_batch question pairs, flattened *)
  mutable slot_query : int array;  (* simulate_shared: slot -> query *)
  mutable slot_local : int array;  (* simulate_shared: slot -> local idx *)
}

let scratch () =
  {
    cal = Event_calendar.create ();
    qbuf = [||];
    slot_query = [||];
    slot_local = [||];
  }

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

(* Scalar float state threaded through the event loop. An all-float
   record is flat, so these fields update without boxing — unlike a
   [float ref], which allocates on every store. *)
type loop_state = { mutable arr_time : float; mutable last_time : float }

(* The canonical do-nothing completion callback ([batch_latency] only
   wants the report). The event loop recognizes it by physical equality
   and skips the indirect call — and the float boxing of its argument —
   on every completion. *)
let noop_complete (_ : int) (_ : float) = ()

let simulate ?(deadline = Float.infinity) ?(metrics = Metrics.disabled)
    ?scratch:scr t rng q ~on_complete =
  let cfg = t.cfg in
  if q < 0 then invalid_arg "Platform: negative batch size";
  if Float.is_nan deadline || deadline <= 0.0 then
    invalid_arg "Platform: deadline must be > 0";
  let m_batches = Metrics.counter metrics ~section:"platform" "batches" in
  Metrics.incr m_batches;
  if q = 0 then begin
    let latency = Float.min cfg.post_overhead deadline in
    {
      latency;
      (* No completions happened; the visibility time is the closest
         well-defined "last event", and it keeps the no-deadline
         invariant [last_completion = latency] intact for q = 0. *)
      last_completion = latency;
      completed = 0;
      in_flight = 0;
      unassigned = 0;
      deadline_hit = deadline < cfg.post_overhead;
    }
  end
  else begin
    (* All platform metrics record *simulated* quantities (event times,
       queue depths), never the wall clock, so they are deterministic
       given the rng — and every recording call is a no-op branch when
       [metrics] is disabled. *)
    let m_events = Metrics.counter metrics ~section:"platform" "events_drained" in
    let m_arrivals = Metrics.counter metrics ~section:"platform" "worker_arrivals" in
    let m_completions = Metrics.counter metrics ~section:"platform" "completions" in
    let m_peak = Metrics.peak metrics ~section:"platform" "in_flight_peak" in
    let m_arrival_h =
      Metrics.histogram_spec metrics ~section:"platform" "arrival_seconds"
        ~buckets:arrival_bucket_spec
    in
    let cal =
      match scr with
      | Some s ->
          Event_calendar.clear s.cal;
          s.cal
      | None -> Event_calendar.create ()
    in
    (* Per-batch constants, hoisted out of the loop: the visibility
       power, the exponential means, the log-normal location and the
       patience probability are all fixed for the batch. *)
    let post = cfg.post_overhead in
    let burst_end = post +. cfg.burst_seconds in
    let diurnal = cfg.diurnal_amplitude > 0.0 in
    let burst_mean = 1.0 /. burst_rate_of cfg q in
    let tail_mean = 1.0 /. cfg.tail_rate in
    let median = cfg.service.Worker.median_seconds in
    let sigma = cfg.service.Worker.sigma in
    let mu = if sigma <= 0.0 then 0.0 else Worker.service_mu cfg.service in
    let log_q = Float.log1p (-.(1.0 /. cfg.patience_mean)) in
    (* Draw-for-draw the same arrival stream as [next_arrival]: the
       clamp, the burst/tail split and the draw order are identical —
       only the per-call constant recomputation is gone. *)
    let next_arr t =
      if diurnal then arrival_after rng cfg q t
      else begin
        let t = if t >= post then t else post in
        if t < burst_end then begin
          let dt = Rng.exponential rng burst_mean in
          if t +. dt <= burst_end then t +. dt
          else burst_end +. Rng.exponential rng tail_mean
        end
        else t +. Rng.exponential rng tail_mean
      end
    in
    (* The arrival stream is a scalar chain — at any moment exactly one
       future arrival exists (each processed arrival draws the next) —
       so it stays out of the calendar: the next event is simply the
       earlier of the pending arrival and the earliest completion, with
       the arrival preferred on (measure-zero) exact ties, matching the
       old heap's insertion order for that case. Once every question is
       assigned the chain dies without drawing a successor; the old
       loop's already-queued final arrival popped as a silent no-op, so
       dropping it changes no draw and no report field. *)
    let next_question = ref 0 in
    let answered = ref 0 in
    let st = { arr_time = 0.0; last_time = post } in
    st.arr_time <- next_arr 0.0;
    let arrivals_alive = ref true in
    let deadline_hit = ref false in
    let live_cb = on_complete != noop_complete in
    (* An event past the deadline ends the round: with the default
       infinite deadline the guard never fires and the loop — and its
       rng draw sequence — is exactly the historical one. The
       take-a-question step (assign the next index, record the queue
       peak, draw the service time, schedule the completion) is written
       out at both event sites rather than through a local closure: a
       closure call re-boxes the float event time on every event. *)
    (* The [@alloc_free] attribute puts the whole steady-state event
       loop under the R6 lint gate: every call in it resolves to an
       annotated function, and the one caller-supplied escape hatch
       ([on_complete]) is marked [@alloc_cold] below. *)
    (while (not !deadline_hit) && !answered < q do
      if
        !arrivals_alive
        && (Event_calendar.is_empty cal
           || st.arr_time <= Event_calendar.min_time cal)
      then begin
        let time = st.arr_time in
        if time > deadline then deadline_hit := true
        else if !next_question < q then begin
          Metrics.incr m_events;
          Metrics.incr m_arrivals;
          Metrics.observe m_arrival_h time;
          (* [next_arr] written out for the steady case: [time] is a
             processed arrival, so it is >= [post] already and the clamp
             is a no-op — the draws are [next_arr]'s exactly. Keeping it
             inline spares the per-arrival closure call and its float
             boxing. *)
          st.arr_time <-
            (if diurnal then arrival_after rng cfg q time
             else if time < burst_end then begin
               let dt = Rng.exponential rng burst_mean in
               if time +. dt <= burst_end then time +. dt
               else burst_end +. Rng.exponential rng tail_mean
             end
             else time +. Rng.exponential rng tail_mean);
          let patience = draw_patience rng ~log_q in
          (* patience >= 1 and a question is free: always take one. *)
          let idx = !next_question in
          incr next_question;
          Metrics.record_peak m_peak (!next_question - !answered);
          let s = if sigma <= 0.0 then median else Rng.lognormal rng ~mu ~sigma in
          Event_calendar.add cal ~time:(time +. s) idx (patience - 1)
        end
        else arrivals_alive := false
      end
      else begin
        let time = Event_calendar.min_time cal in
        if time > deadline then deadline_hit := true
        else begin
          let idx = Event_calendar.min_a cal in
          let patience = Event_calendar.min_b cal in
          Event_calendar.remove_min cal;
          Metrics.incr m_events;
          incr answered;
          Metrics.incr m_completions;
          if time > st.last_time then st.last_time <- time;
          if live_cb then (on_complete [@alloc_cold]) idx time;
          if patience > 0 && !next_question < q then begin
            let idx = !next_question in
            incr next_question;
            Metrics.record_peak m_peak (!next_question - !answered);
            let s =
              if sigma <= 0.0 then median else Rng.lognormal rng ~mu ~sigma
            in
            Event_calendar.add cal ~time:(time +. s) idx (patience - 1)
          end
        end
      end
    done)
    [@alloc_free];
    {
      latency = (if !deadline_hit then deadline else st.last_time);
      (* The loop's running last-completion time, surfaced even when a
         deadline clips [latency] to the cutoff: this is the observed
         completion time an estimator can trust (the deadline says how
         long the caller waited, not how fast the platform was). *)
      last_completion = st.last_time;
      completed = !answered;
      in_flight = !next_question - !answered;
      unassigned = q - !next_question;
      deadline_hit = !deadline_hit;
    }
  end

let batch_latency ?deadline ?metrics ?scratch t rng q =
  (simulate ?deadline ?metrics ?scratch t rng q ~on_complete:noop_complete)
    .latency

type answered = { question : int * int; winner : int; completed_at : float }

let answer_batch ?deadline ?metrics ?scratch:scr t rng ~error ~truth questions =
  let s = match scr with Some s -> s | None -> scratch () in
  (* Flatten the pairs into the scratch buffer (grown geometrically, so
     steady-state rounds copy into existing storage) instead of
     allocating a fresh pair array per round. *)
  let n = List.length questions in
  if Array.length s.qbuf < 2 * n then
    s.qbuf <- Array.make (max 16 (2 * (2 * n))) 0;
  let qbuf = s.qbuf in
  List.iteri
    (fun i (a, b) ->
      qbuf.((2 * i)) <- a;
      qbuf.((2 * i) + 1) <- b)
    questions;
  let results = ref [] in
  let on_complete idx time =
    let a = qbuf.(2 * idx) and b = qbuf.((2 * idx) + 1) in
    let winner = Worker.answer rng error truth a b in
    results := { question = (a, b); winner; completed_at = time } :: !results
  in
  let report = simulate ?deadline ?metrics ~scratch:s t rng n ~on_complete in
  (List.rev !results, report)

(* --- shared-supply mode -------------------------------------------------- *)

type pick_policy = Fifo | Proportional

(* One worker marketplace serving several concurrent batches ("queries")
   at once. A single arrival stream whose rate is driven by the *total*
   visible question count replaces the per-batch streams [simulate]
   would conjure — the whole point: concurrent batches no longer each
   summon an independent crowd.

   Draw contracts (tested):
   - A single query [|q|] is draw-for-draw identical to [simulate q]:
     the pick step consumes no rng when only one query is live, and the
     arrival/patience/service draws happen in [simulate]'s exact order.
   - Under [Fifo] with no deadlines, k queries are draw-for-draw
     identical to one merged [simulate (sum qs)] batch: FIFO assigns
     global question [i] to the query owning flattened slot [i], and
     visibility (hence the arrival rate) is the constant total, exactly
     like the merged batch — the no-supply-duplication invariant.

   Visibility: a posted batch contributes its full size to the arrival
   rate until its query is withdrawn (deadline passed) — matching
   [simulate], where the batch size drives the rate for the whole run
   regardless of how much of it is already assigned. [Proportional]
   picks a query for each free worker with probability proportional to
   the query's posted size among queries that still have unassigned
   questions (no draw when only one qualifies).

   Per-query deadlines: when an event lands strictly past a query's
   deadline the query is withdrawn — its unassigned questions leave the
   market and later completions of its in-flight questions are
   discarded (the worker, patience permitting, picks up another query's
   question instead; the crowd does not evaporate because one requester
   stopped listening). Discarded questions stay in the query's
   [in_flight] bucket, so [completed + in_flight + unassigned = q]
   holds per query. *)
let simulate_shared ?deadlines ?(metrics = Metrics.disabled) ?scratch:scr t rng
    ~pick ~on_complete qs =
  let cfg = t.cfg in
  let nq = Array.length qs in
  if nq = 0 then invalid_arg "Platform.simulate_shared: no queries";
  Array.iter
    (fun q -> if q < 0 then invalid_arg "Platform: negative batch size")
    qs;
  let deadlines =
    match deadlines with
    | None -> Array.make nq Float.infinity
    | Some d ->
        if Array.length d <> nq then
          invalid_arg "Platform.simulate_shared: deadlines length mismatch";
        Array.iter
          (fun x ->
            if Float.is_nan x || x <= 0.0 then
              invalid_arg "Platform: deadline must be > 0")
          d;
        Array.copy d
  in
  let m_batches = Metrics.counter metrics ~section:"platform" "batches" in
  Metrics.add m_batches nq;
  let m_shared =
    Metrics.counter metrics ~section:"platform" "shared_calls"
  in
  Metrics.incr m_shared;
  let post = cfg.post_overhead in
  let zero_report i =
    let deadline = deadlines.(i) in
    let latency = Float.min post deadline in
    {
      latency;
      last_completion = latency;
      completed = 0;
      in_flight = 0;
      unassigned = 0;
      deadline_hit = deadline < post;
    }
  in
  let total = Array.fold_left ( + ) 0 qs in
  if total = 0 then Array.init nq zero_report
  else begin
    let m_events = Metrics.counter metrics ~section:"platform" "events_drained" in
    let m_arrivals = Metrics.counter metrics ~section:"platform" "worker_arrivals" in
    let m_completions = Metrics.counter metrics ~section:"platform" "completions" in
    let m_discarded =
      Metrics.counter metrics ~section:"platform" "shared_discarded_answers"
    in
    let m_peak = Metrics.peak metrics ~section:"platform" "in_flight_peak" in
    let m_arrival_h =
      Metrics.histogram_spec metrics ~section:"platform" "arrival_seconds"
        ~buckets:arrival_bucket_spec
    in
    let s = match scr with Some s -> s | None -> scratch () in
    Event_calendar.clear s.cal;
    let cal = s.cal in
    if Array.length s.slot_query < total then begin
      s.slot_query <- Array.make (max 16 (2 * total)) 0;
      s.slot_local <- Array.make (max 16 (2 * total)) 0
    end;
    let slot_query = s.slot_query and slot_local = s.slot_local in
    (* Per-query progress. [next_q] is the assignment cursor; a query is
       "done" once fully answered or withdrawn, and the loop runs until
       every query is done. *)
    let next_q = Array.make nq 0 in
    let answered = Array.make nq 0 in
    let last_time = Array.make nq post in
    let withdrawn = Array.make nq false in
    let done_ = Array.make nq false in
    let remaining = ref nq in
    let visible = ref 0 in
    let unassigned_total = ref 0 in
    Array.iteri
      (fun i q ->
        if q = 0 then begin
          done_.(i) <- true;
          decr remaining
        end
        else begin
          visible := !visible + q;
          unassigned_total := !unassigned_total + q
        end)
      qs;
    (* A query is pickable while it has unassigned questions and is not
       withdrawn. [pick_weight] and [pick_count] are the pickable
       queries' total posted size and their number, kept current by
       [withdraw_sweep] and [assign]. *)
    let pick_weight = ref !visible and pick_count = ref !remaining in
    let next_deadline = ref Float.infinity in
    let recompute_next_deadline () =
      let d = ref Float.infinity in
      for i = 0 to nq - 1 do
        if (not done_.(i)) && deadlines.(i) < !d then d := deadlines.(i)
      done;
      next_deadline := !d
    in
    recompute_next_deadline ();
    (* Arrival-rate constants depend on total visibility, so they are
       recomputed only when a withdrawal shrinks it. *)
    let burst_end = post +. cfg.burst_seconds in
    let diurnal = cfg.diurnal_amplitude > 0.0 in
    let burst_mean = ref (1.0 /. burst_rate_of cfg !visible) in
    let tail_mean = 1.0 /. cfg.tail_rate in
    let median = cfg.service.Worker.median_seconds in
    let sigma = cfg.service.Worker.sigma in
    let mu = if sigma <= 0.0 then 0.0 else Worker.service_mu cfg.service in
    let log_q = Float.log1p (-.(1.0 /. cfg.patience_mean)) in
    let next_arr t =
      if diurnal then arrival_after rng cfg !visible t
      else begin
        let t = if t >= post then t else post in
        if t < burst_end then begin
          let dt = Rng.exponential rng !burst_mean in
          if t +. dt <= burst_end then t +. dt
          else burst_end +. Rng.exponential rng tail_mean
        end
        else t +. Rng.exponential rng tail_mean
      end
    in
    let withdraw_sweep time =
      for i = 0 to nq - 1 do
        if (not done_.(i)) && time > deadlines.(i) then begin
          if next_q.(i) < qs.(i) then begin
            pick_weight := !pick_weight - qs.(i);
            decr pick_count
          end;
          withdrawn.(i) <- true;
          done_.(i) <- true;
          decr remaining;
          visible := !visible - qs.(i);
          unassigned_total := !unassigned_total - (qs.(i) - next_q.(i));
          if !visible > 0 then burst_mean := 1.0 /. burst_rate_of cfg !visible
        end
      done;
      recompute_next_deadline ()
    in
    (* One pickable query always exists when this runs
       ([unassigned_total > 0] is checked at both call sites). The
       single-candidate case draws nothing — that is what makes the
       one-query run identical to [simulate] — and its scan, starting
       from [r = 0], stops at that candidate. *)
    let pick_query () =
      match pick with
      | Fifo ->
          let i = ref 0 in
          while withdrawn.(!i) || next_q.(!i) >= qs.(!i) do
            incr i
          done;
          !i
      | Proportional ->
          let r = ref (if !pick_count = 1 then 0 else Rng.int rng !pick_weight) in
          let j = ref (-1) in
          let i = ref 0 in
          while !j < 0 do
            if (not withdrawn.(!i)) && next_q.(!i) < qs.(!i) then begin
              if !r < qs.(!i) then j := !i else r := !r - qs.(!i)
            end;
            incr i
          done;
          !j
    in
    let next_slot = ref 0 in
    let completions_seen = ref 0 in
    let discarded = ref 0 in
    (* Assign one question to a worker arriving (or freed) at [time]
       with [patience] answers left after this one. *)
    let assign time patience =
      let qi = pick_query () in
      let slot = !next_slot in
      incr next_slot;
      slot_query.(slot) <- qi;
      slot_local.(slot) <- next_q.(qi);
      next_q.(qi) <- next_q.(qi) + 1;
      if next_q.(qi) = qs.(qi) then begin
        pick_weight := !pick_weight - qs.(qi);
        decr pick_count
      end;
      decr unassigned_total;
      Metrics.record_peak m_peak (!next_slot - !completions_seen);
      let sv = if sigma <= 0.0 then median else Rng.lognormal rng ~mu ~sigma in
      Event_calendar.add cal ~time:(time +. sv) slot patience
    in
    let st = { arr_time = 0.0; last_time = post } in
    st.arr_time <- next_arr 0.0;
    let arrivals_alive = ref true in
    while !remaining > 0 do
      if
        !arrivals_alive
        && (Event_calendar.is_empty cal
           || st.arr_time <= Event_calendar.min_time cal)
      then begin
        let time = st.arr_time in
        if time > !next_deadline then withdraw_sweep time;
        if !unassigned_total > 0 then begin
          Metrics.incr m_events;
          Metrics.incr m_arrivals;
          Metrics.observe m_arrival_h time;
          st.arr_time <- next_arr time;
          let patience = draw_patience rng ~log_q in
          assign time (patience - 1)
        end
        else arrivals_alive := false
      end
      else if Event_calendar.is_empty cal then
        (* No future events can exist: every not-done query would need
           an in-flight completion or a live arrival to finish. Defensive
           only — unreachable while tail_rate > 0. *)
        remaining := 0
      else begin
        let time = Event_calendar.min_time cal in
        if time > !next_deadline then withdraw_sweep time;
        let slot = Event_calendar.min_a cal in
        let patience = Event_calendar.min_b cal in
        Event_calendar.remove_min cal;
        Metrics.incr m_events;
        incr completions_seen;
        let qi = slot_query.(slot) in
        if withdrawn.(qi) then begin
          (* The requester stopped listening; the answer is lost but the
             worker is still on the market. *)
          incr discarded;
          Metrics.incr m_discarded
        end
        else begin
          Metrics.incr m_completions;
          answered.(qi) <- answered.(qi) + 1;
          if time > last_time.(qi) then last_time.(qi) <- time;
          on_complete ~query:qi slot_local.(slot) time;
          if answered.(qi) = qs.(qi) then begin
            done_.(qi) <- true;
            decr remaining;
            recompute_next_deadline ()
          end
        end;
        if patience > 0 && !unassigned_total > 0 then
          assign time (patience - 1)
      end
    done;
    Array.init nq (fun i ->
        if qs.(i) = 0 then zero_report i
        else
          {
            latency = (if withdrawn.(i) then deadlines.(i) else last_time.(i));
            last_completion = last_time.(i);
            completed = answered.(i);
            in_flight = next_q.(i) - answered.(i);
            unassigned = qs.(i) - next_q.(i);
            deadline_hit = withdrawn.(i);
          })
  end
