(* Instrument cells are bare mutable records shared between the
   registry (for snapshots) and the handles (for recording), so a
   recording operation is one pattern match plus one store — no lookup,
   no allocation. The Disabled registry hands out the constant no-op
   handle of each kind. *)

type count_cell = { mutable count : int }
type peak_cell = { mutable peak : int }
type real_cell = { mutable seconds : float }

type hist_cell = {
  h_buckets : float array;
  h_counts : int array; (* length = buckets + 1; last is overflow *)
  mutable h_total : int;
  (* One-element float array, not a [mutable float] field: the record
     mixes word and float fields, so a float field would hold a boxed
     value and every [observe] store would allocate a fresh box. A float
     array stores unboxed. *)
  h_sum : float array;
}

type cell =
  | C_count of count_cell
  | C_peak of peak_cell
  | C_hist of hist_cell
  | C_real of real_cell

type named = { n_section : string; n_name : string; n_cell : cell }

type state = { mutable cells : named list (* sorted by (section, name) *) }
type t = Disabled | Enabled of state

let disabled = Disabled
let create () = Enabled { cells = [] }
let enabled = function Disabled -> false | Enabled _ -> true

(* Registration is rare (a handful per run) and lookups only happen at
   registration time, so a scan over a sorted list beats a hashtable
   here — and sidesteps the lint's no-Hashtbl-iteration rule for the
   export. Keeping the list sorted at insertion makes the lookup
   early-exit and lets [snapshot] skip sorting, which matters because a
   registry lives for exactly one run: registration and snapshot ARE
   the per-run overhead. *)
let compare_key n ~section name =
  let c = String.compare n.n_section section in
  if c <> 0 then c else String.compare n.n_name name

(* Instrument keys are overwhelmingly static string literals, and a
   given call site passes the same literal (the same address) on every
   call — so once a cell exists, a physical-equality scan finds it
   without comparing a single byte. Content-equal keys from a different
   call site miss this pass and fall back to the ordered walk below. *)
let rec find_phys cells ~section name =
  match cells with
  | [] -> None
  | n :: rest ->
      if n.n_section == section && n.n_name == name then Some n.n_cell
      else find_phys rest ~section name

let rec find_ord cells ~section name =
  match cells with
  | [] -> None
  | n :: rest ->
      let c = compare_key n ~section name in
      if c = 0 then Some n.n_cell
      else if c > 0 then None (* sorted: we are past the insertion point *)
      else find_ord rest ~section name

let find_cell cells ~section name =
  match find_phys cells ~section name with
  | Some _ as hit -> hit
  | None -> find_ord cells ~section name

let register state ~section name ~kind make =
  match find_cell state.cells ~section name with
  | Some c -> c
  | None ->
      ignore kind;
      let c = make () in
      let entry = { n_section = section; n_name = name; n_cell = c } in
      let rec insert = function
        | [] -> [ entry ]
        | n :: rest as l ->
            if compare_key n ~section name > 0 then entry :: l
            else n :: insert rest
      in
      state.cells <- insert state.cells;
      c

(* Zero every cell but keep the registrations (and therefore the handle
   sharing): a reused registry behaves exactly like a fresh one as long
   as the instrumented code registers the same instrument set on every
   pass — which it does, because registration is unconditional at the
   entry of each instrumented function. *)
let reset = function
  | Disabled -> ()
  | Enabled s ->
      List.iter
        (fun n ->
          match n.n_cell with
          | C_count c -> c.count <- 0
          | C_peak c -> c.peak <- 0
          | C_real c -> c.seconds <- 0.0
          | C_hist c ->
              Array.fill c.h_counts 0 (Array.length c.h_counts) 0;
              c.h_total <- 0;
              c.h_sum.(0) <- 0.0)
        s.cells

let kind_clash ~section name =
  invalid_arg
    (Printf.sprintf
       "Metrics: %s/%s is already registered as a different instrument kind"
       section name)

type counter = No_counter | A_counter of count_cell

let counter t ~section name =
  match t with
  | Disabled -> No_counter
  | Enabled s -> (
      match register s ~section name ~kind:"counter" (fun () -> C_count { count = 0 }) with
      | C_count c -> A_counter c
      | C_peak _ | C_hist _ | C_real _ -> kind_clash ~section name)

let[@inline] incr = function
  | No_counter -> ()
  | A_counter c -> c.count <- c.count + 1
[@@alloc_free]

let add h n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  match h with No_counter -> () | A_counter c -> c.count <- c.count + n
[@@alloc_free]

type peak = No_peak | A_peak of peak_cell

let peak t ~section name =
  match t with
  | Disabled -> No_peak
  | Enabled s -> (
      match register s ~section name ~kind:"peak" (fun () -> C_peak { peak = 0 }) with
      | C_peak c -> A_peak c
      | C_count _ | C_hist _ | C_real _ -> kind_clash ~section name)

let[@inline] record_peak h v =
  match h with No_peak -> () | A_peak c -> if v > c.peak then c.peak <- v
[@@alloc_free]

type histogram = No_hist | A_hist of hist_cell

let check_buckets (buckets : float array) =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.bucket_spec: empty bucket array";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg
        "Metrics.bucket_spec: bucket bounds must be strictly increasing"
  done

(* A [bucket_spec] is a validated, privately owned copy of the bounds:
   abstract in the interface, so a module-level spec constant is
   immutable by contract (and passes lint R3), and [histogram] can share
   it without re-validating or re-copying per registration. *)
type bucket_spec = float array

let bucket_spec buckets =
  check_buckets buckets;
  Array.copy buckets

let histogram t ~section name ~buckets =
  match t with
  | Disabled -> No_hist
  | Enabled s -> (
      let make () =
        C_hist
          {
            h_buckets = buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_total = 0;
            h_sum = Array.make 1 0.0;
          }
      in
      match register s ~section name ~kind:"histogram" make with
      | C_hist c -> A_hist c
      | C_count _ | C_peak _ | C_real _ -> kind_clash ~section name)

let observe h v =
  match h with
  | No_hist -> ()
  | A_hist c ->
      let n = Array.length c.h_buckets in
      let i = ref 0 in
      while !i < n && v > c.h_buckets.(!i) do
        i := !i + 1
      done;
      c.h_counts.(!i) <- c.h_counts.(!i) + 1;
      c.h_total <- c.h_total + 1;
      c.h_sum.(0) <- c.h_sum.(0) +. v
[@@alloc_free]

type span = No_span | A_span of real_cell

let span t ~section name =
  match t with
  | Disabled -> No_span
  | Enabled s -> (
      match register s ~section name ~kind:"span" (fun () -> C_real { seconds = 0.0 }) with
      | C_real c -> A_span c
      | C_count _ | C_peak _ | C_hist _ -> kind_clash ~section name)

let time s f =
  match s with
  | No_span -> f ()
  | A_span c -> (
      let t0 = Clock.now () in
      match f () with
      | v ->
          c.seconds <- c.seconds +. (Clock.now () -. t0);
          v
      | exception e ->
          c.seconds <- c.seconds +. (Clock.now () -. t0);
          raise e)

(* --- snapshots ----------------------------------------------------------- *)

type value =
  | Count of int
  | Peak of int
  | Histogram of {
      buckets : float array;
      counts : int array;
      total : int;
      sum : float;
    }
  | Real_seconds of float

type entry = { section : string; name : string; value : value }
type snapshot = entry list

(* Bucket bounds are fixed at registration and never written again, so
   snapshots share the registry's array ([merge] already shares bucket
   arrays between its inputs and output on the same reasoning). Counts
   keep mutating, hence the copy. *)
let value_of_cell = function
  | C_count c -> Count c.count
  | C_peak c -> Peak c.peak
  | C_real c -> Real_seconds c.seconds
  | C_hist c ->
      Histogram
        {
          buckets = c.h_buckets;
          counts = Array.copy c.h_counts;
          total = c.h_total;
          sum = c.h_sum.(0);
        }

(* Physical equality implies string equality, and snapshots taken from
   the same (or a reused) registry share their key strings — so merging
   aligned snapshots, the common case, costs pointer compares only. *)
let compare_entry a b =
  if a.section == b.section then
    if a.name == b.name then 0 else String.compare a.name b.name
  else
    let c = String.compare a.section b.section in
    if c <> 0 then c else String.compare a.name b.name

(* [state.cells] is kept sorted by (section, name), so the snapshot is
   already in canonical order. *)
let snapshot = function
  | Disabled -> []
  | Enabled s ->
      List.map
        (fun n ->
          { section = n.n_section; name = n.n_name; value = value_of_cell n.n_cell })
        s.cells

let float_array_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (Float.equal v b.(i)) then ok := false) a;
  !ok

let merge_value ~section ~name a b =
  match (a, b) with
  | Count x, Count y -> Count (x + y)
  | Peak x, Peak y -> Peak (max x y)
  | Real_seconds x, Real_seconds y -> Real_seconds (x +. y)
  | Histogram ha, Histogram hb ->
      if not (float_array_equal ha.buckets hb.buckets) then
        invalid_arg
          (Printf.sprintf "Metrics.merge: %s/%s has mismatched histogram buckets"
             section name);
      Histogram
        {
          buckets = ha.buckets;
          counts = Array.init (Array.length ha.counts) (fun i ->
              ha.counts.(i) + hb.counts.(i));
          total = ha.total + hb.total;
          sum = ha.sum +. hb.sum;
        }
  | (Count _ | Peak _ | Real_seconds _ | Histogram _), _ ->
      invalid_arg
        (Printf.sprintf "Metrics.merge: %s/%s has conflicting instrument kinds"
           section name)

(* Union of two sorted snapshots, combining equal keys. *)
let rec union a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | ea :: ra, eb :: rb ->
      let c = compare_entry ea eb in
      if c < 0 then ea :: union ra b
      else if c > 0 then eb :: union a rb
      else
        { ea with
          value = merge_value ~section:ea.section ~name:ea.name ea.value eb.value }
        :: union ra rb

let merge snaps = List.fold_left union [] snaps

(* [absorb ~into t] adds [t]'s current values into [into]'s cells in
   place, registering missing instruments along the way. Absorbing a
   sequence of measurements and snapshotting [into] at the end equals
   the left-fold [merge] of the per-measurement snapshots — identical
   value grouping, so identical float bits — at zero per-step
   allocation. [Engine.replicate_with_metrics] leans on this for its
   single-domain hot path, where building and merging an immutable
   snapshot per run would dominate the instrumentation cost. *)
(* A zero-valued cell of the same kind as [cell]. The zero histogram
   shares the source's (immutable) bucket bounds, so repeated
   absorption from the same registry passes the compatibility check on
   pointer equality. *)
let zero_of cell () =
  match cell with
  | C_count _ -> C_count { count = 0 }
  | C_peak _ -> C_peak { peak = 0 }
  | C_real _ -> C_real { seconds = 0.0 }
  | C_hist c ->
      C_hist
        {
          h_buckets = c.h_buckets;
          h_counts = Array.make (Array.length c.h_counts) 0;
          h_total = 0;
          h_sum = Array.make 1 0.0;
        }

let combine_cells ~section ~name dst src =
  match (dst, src) with
  | C_count d, C_count c -> d.count <- d.count + c.count
  | C_peak d, C_peak c -> if c.peak > d.peak then d.peak <- c.peak
  | C_real d, C_real c -> d.seconds <- d.seconds +. c.seconds
  | C_hist d, C_hist c ->
      if
        not
          (d.h_buckets == c.h_buckets
          || float_array_equal d.h_buckets c.h_buckets)
      then
        invalid_arg
          (Printf.sprintf
             "Metrics.absorb: %s/%s has mismatched histogram buckets" section
             name);
      for i = 0 to Array.length d.h_counts - 1 do
        d.h_counts.(i) <- d.h_counts.(i) + c.h_counts.(i)
      done;
      d.h_total <- d.h_total + c.h_total;
      d.h_sum.(0) <- d.h_sum.(0) +. c.h_sum.(0)
  | (C_count _ | C_peak _ | C_real _ | C_hist _), _ -> kind_clash ~section name

let absorb ~into t =
  match (into, t) with
  | Disabled, _ | _, Disabled -> ()
  | Enabled dst, Enabled src ->
      let absorb_one n =
        let d = register dst ~section:n.n_section n.n_name ~kind:"" (zero_of n.n_cell) in
        combine_cells ~section:n.n_section ~name:n.n_name d n.n_cell
      in
      (* After the first absorption the destination holds exactly the
         source's instruments, in the same sorted order and with the
         same key strings — so the steady state is a lockstep walk of
         the two cell lists, one phys-equality check and one in-place
         combine per instrument, no lookups. Any misalignment (first
         absorption, or a destination with other instruments) falls
         back to registration-based lookup for the remaining cells. *)
      let rec walk ds ss =
        match (ds, ss) with
        | _, [] -> ()
        | d :: drest, s :: srest
          when d.n_section == s.n_section && d.n_name == s.n_name ->
            combine_cells ~section:s.n_section ~name:s.n_name d.n_cell s.n_cell;
            walk drest srest
        | _, ss -> List.iter absorb_one ss
      in
      walk dst.cells src.cells

let simulated_only snap =
  List.filter (function { value = Real_seconds _; _ } -> false | _ -> true) snap

let find snap ~section name =
  List.find_opt
    (fun e -> String.equal e.section section && String.equal e.name name)
    snap
  |> Option.map (fun e -> e.value)

let int_array_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if v <> b.(i) then ok := false) a;
  !ok

let equal_value a b =
  match (a, b) with
  | Count x, Count y | Peak x, Peak y -> x = y
  | Real_seconds x, Real_seconds y -> Float.equal x y
  | Histogram ha, Histogram hb ->
      float_array_equal ha.buckets hb.buckets
      && int_array_equal ha.counts hb.counts
      && ha.total = hb.total
      && Float.equal ha.sum hb.sum
  | (Count _ | Peak _ | Real_seconds _ | Histogram _), _ -> false

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ea eb ->
         String.equal ea.section eb.section
         && String.equal ea.name eb.name
         && equal_value ea.value eb.value)
       a b
