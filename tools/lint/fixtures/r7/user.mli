(* Exports nothing: a user of Surface, not a surface of its own. *)
