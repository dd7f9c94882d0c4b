module J = Crowdmax_util.Json
module Metrics = Crowdmax_obs.Metrics

(* --- encoding ------------------------------------------------------------ *)

let metrics_schema = "crowdmax-metrics/v1"

let metrics_value_to_json = function
  | Metrics.Count n -> J.Obj [ ("kind", J.String "count"); ("value", J.int n) ]
  | Metrics.Peak n -> J.Obj [ ("kind", J.String "peak"); ("value", J.int n) ]
  | Metrics.Real_seconds s ->
      J.Obj [ ("kind", J.String "real_seconds"); ("value", J.Float s) ]
  | Metrics.Histogram { buckets; counts; total; sum } ->
      J.Obj
        [
          ("kind", J.String "histogram");
          ( "buckets",
            J.List (Array.to_list (Array.map (fun b -> J.Float b) buckets)) );
          ("counts", J.List (Array.to_list (Array.map J.int counts)));
          ("total", J.int total);
          ("sum", J.Float sum);
        ]

let metrics_to_json (s : Metrics.snapshot) =
  (* The snapshot is sorted by (section, name), so grouping by section
     preserves both section order and name order within a section —
     the document is schema-stable across runs. *)
  let rec group = function
    | [] -> []
    | { Metrics.section; _ } :: _ as entries ->
        let mine, rest =
          List.partition
            (fun e -> String.equal e.Metrics.section section)
            entries
        in
        ( section,
          J.Obj
            (List.map
               (fun e -> (e.Metrics.name, metrics_value_to_json e.Metrics.value))
               mine) )
        :: group rest
  in
  J.Obj (("schema", J.String metrics_schema) :: group s)

let aggregate_to_json ?metrics (a : Engine.aggregate) =
  let metrics_field =
    match metrics with
    | None -> []
    | Some s -> [ ("metrics", metrics_to_json s) ]
  in
  J.Obj
    ([
       ("runs", J.int a.Engine.runs);
       ("mean_latency", J.Float a.Engine.mean_latency);
       ("stddev_latency", J.Float a.Engine.stddev_latency);
       ("median_latency", J.Float a.Engine.median_latency);
       ("p95_latency", J.Float a.Engine.p95_latency);
       ("singleton_rate", J.Float a.Engine.singleton_rate);
       ("correct_rate", J.Float a.Engine.correct_rate);
       ("mean_questions", J.Float a.Engine.mean_questions);
       ("mean_rounds", J.Float a.Engine.mean_rounds);
       ("jobs", J.int a.Engine.timing.Engine.jobs);
       ("wall_seconds", J.Float a.Engine.timing.Engine.wall_seconds);
       ("runs_per_sec", J.Float a.Engine.timing.Engine.runs_per_sec);
     ]
    @ metrics_field)

(* --- decoding ------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let field name conv doc =
  match Option.bind (J.member name doc) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let int_field name = field name J.to_int
let float_field name = field name J.to_float

let rec collect conv what = function
  | [] -> Ok []
  | doc :: rest -> (
      match conv doc with
      | None -> Error (Printf.sprintf "ill-typed %s element" what)
      | Some v ->
          let* vs = collect conv what rest in
          Ok (v :: vs))

let metrics_value_of_json doc =
  let* kind = field "kind" J.to_str doc in
  match kind with
  | "count" ->
      let* v = int_field "value" doc in
      Ok (Metrics.Count v)
  | "peak" ->
      let* v = int_field "value" doc in
      Ok (Metrics.Peak v)
  | "real_seconds" ->
      let* v = float_field "value" doc in
      Ok (Metrics.Real_seconds v)
  | "histogram" ->
      let* bucket_docs = field "buckets" J.to_list doc in
      let* buckets = collect J.to_float "buckets" bucket_docs in
      let* count_docs = field "counts" J.to_list doc in
      let* counts = collect J.to_int "counts" count_docs in
      let* total = int_field "total" doc in
      let* sum = float_field "sum" doc in
      if List.length counts <> List.length buckets + 1 then
        Error "histogram counts length must be buckets length + 1"
      else
        Ok
          (Metrics.Histogram
             {
               buckets = Array.of_list buckets;
               counts = Array.of_list counts;
               total;
               sum;
             })
  | k -> Error (Printf.sprintf "unknown metric kind %S" k)

let metrics_of_json doc =
  match doc with
  | J.Obj fields ->
      let* () =
        match J.member "schema" doc with
        | Some (J.String s) when String.equal s metrics_schema -> Ok ()
        | Some (J.String s) ->
            Error (Printf.sprintf "unknown metrics schema %S" s)
        | _ -> Error "metrics document has no schema string"
      in
      let section_entries (section, sec_doc) =
        if String.equal section "schema" then Ok []
        else
          match sec_doc with
          | J.Obj named ->
              let rec entries = function
                | [] -> Ok []
                | (name, vdoc) :: rest ->
                    let* value = metrics_value_of_json vdoc in
                    let* es = entries rest in
                    Ok ({ Metrics.section; name; value } :: es)
              in
              entries named
          | _ -> Error (Printf.sprintf "metrics section %S is not an object" section)
      in
      let rec sections = function
        | [] -> Ok []
        | f :: rest ->
            let* es = section_entries f in
            let* rs = sections rest in
            Ok (es @ rs)
      in
      let* entries = sections fields in
      (* Re-sort rather than trust the document's key order: [snapshot]
         promises (section, name) order. *)
      Ok
        (List.sort
           (fun (a : Metrics.entry) (b : Metrics.entry) ->
             let c = String.compare a.Metrics.section b.Metrics.section in
             if c <> 0 then c else String.compare a.Metrics.name b.Metrics.name)
           entries)
  | _ -> Error "metrics document is not an object"

(* Pre-observability aggregates have no "metrics" field: decode it to
   the empty snapshot. *)
let aggregate_metrics_of_json doc =
  match J.member "metrics" doc with
  | None -> Ok []
  | Some m -> metrics_of_json m
