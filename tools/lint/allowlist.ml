(* Checked-in suppressions. One entry per line:

     RULE PATH[:LINE] reason text...

   - RULE is R1..R7 (or * for any rule).
   - PATH matches a finding whose file equals the path or ends with
     "/PATH"; an optional :LINE pins the entry to one line.
   - The reason is mandatory: every suppression must say why.

   Lines starting with '#' and blank lines are ignored. Malformed
   entries are a hard error so the file cannot rot silently. *)

type entry = {
  e_rule : string;
  e_path : string;
  e_line : int option;
  e_reason : string;
  e_source_line : int;
  mutable e_used : bool;
}

type t = { file : string; entries : entry list }

let empty = { file = "<none>"; entries = [] }

exception Malformed of string

let split_path_line spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let tail = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt tail with
      | Some n -> (String.sub spec 0 i, Some n)
      | None -> (spec, None))
  | None -> (spec, None)

let parse_line file lineno line =
  let line = String.trim line in
  if String.equal line "" || Char.equal line.[0] '#' then None
  else
    match
      String.split_on_char ' ' line
      |> List.filter (fun s -> not (String.equal s ""))
    with
    | rule :: path_spec :: (_ :: _ as reason_words) ->
        let path, pinned_line = split_path_line path_spec in
        Some
          {
            e_rule = rule;
            e_path = path;
            e_line = pinned_line;
            e_reason = String.concat " " reason_words;
            e_source_line = lineno;
            e_used = false;
          }
    | _ ->
        raise
          (Malformed
             (Printf.sprintf
                "%s:%d: malformed allowlist entry (want: RULE PATH[:LINE] \
                 reason...)"
                file lineno))

let load file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match parse_line file !lineno line with
           | Some e -> entries := e :: !entries
           | None -> ()
         done
       with End_of_file -> ());
      { file; entries = List.rev !entries })

let path_matches ~entry_path ~file =
  String.equal entry_path file
  || (let suffix = "/" ^ entry_path in
      let lf = String.length file and ls = String.length suffix in
      lf >= ls && String.equal (String.sub file (lf - ls) ls) suffix)

(* Returns [true] (and marks the entry used) iff some entry suppresses
   the finding. *)
let suppresses t (f : Finding.t) =
  let matching e =
    (String.equal e.e_rule "*" || String.equal e.e_rule f.Finding.rule)
    && path_matches ~entry_path:e.e_path ~file:f.Finding.file
    && match e.e_line with None -> true | Some l -> l = f.Finding.line
  in
  match List.find_opt matching t.entries with
  | Some e ->
      e.e_used <- true;
      true
  | None -> false

let unused t = List.filter (fun e -> not e.e_used) t.entries

let describe e =
  match e.e_line with
  | None -> Printf.sprintf "%s %s" e.e_rule e.e_path
  | Some l -> Printf.sprintf "%s %s:%d" e.e_rule e.e_path l
