(* A single lint finding: stable, sortable, printed one per line as
   [file:line:col RULE message] so editors and the fixture golden test
   can both consume the output. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string; (* "R1" .. "R7" *)
  message : string;
}

let make ~loc ~rule ~message =
  let pos = loc.Location.loc_start in
  {
    file = pos.Lexing.pos_fname;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    rule;
    message;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let equal a b = compare a b = 0

let to_string f =
  Printf.sprintf "%s:%d:%d %s %s" f.file f.line f.col f.rule f.message
