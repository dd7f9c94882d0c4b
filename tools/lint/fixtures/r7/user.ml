(* References Surface.used directly and Surface.via_alias only through
   a local alias: neither may be reported. *)
module M = Surface

let run x = Surface.used (M.via_alias x)
