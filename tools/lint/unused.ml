(* R7 — library surface that nothing uses.

   The libraries are private, so the only users of a lib/ value are the
   repo's other compilation units. Every [Texp_ident] of every loaded
   typedtree (lint targets and --refs-only units alike) resolves to a
   canonical "Module.Sub.value" key, module aliases and dune's wrapper
   modules chased through [Mty_alias]: [module T = Tournament] then
   [T.run] is a use of [Tournament.run]. Two findings on the library
   interfaces: a [val] (submodule vals too) no other unit references,
   tests included; and a module exporting values of which no unit
   outside a [test] directory references any. A module's uses of its
   own values do not count. Not seen: values reached only through
   [include], a functor argument or a first-class module. *)

open Typedtree

(* [foreign]: value keys referenced from a unit other than their own;
   [reached]: top modules referenced from such a unit outside test/. *)
type uses = {
  foreign : (string, unit) Hashtbl.t;
  reached : (string, unit) Hashtbl.t;
}

let create () = { foreign = Hashtbl.create 1024; reached = Hashtbl.create 64 }

let rec canonical env p =
  let p = match p with Path.Pdot (m, x) -> Path.Pdot (canonical env m, x) | _ -> p in
  match (Env.find_module p env).Types.md_type with
  | Types.Mty_alias q -> canonical env q
  | _ -> p
  | exception _ -> p

let rec module_key ~modname = function
  | Path.Pident id when Ident.global id ->
      Alloc_free.normalize_modname (Ident.name id)
  | Path.Pident id -> modname ^ "." ^ Ident.name id
  | Path.Pdot (m, x) -> module_key ~modname m ^ "." ^ x
  | (Path.Papply _ | Path.Pextra_ty _) as p -> Path.name p

let collect uses ~env_of ~modname ~source str =
  let test = List.exists (String.equal "test") (String.split_on_char '/' source) in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pdot (m, x), _, _) ->
        let key = module_key ~modname (canonical (env_of e.exp_env) m) in
        let top = List.hd (String.split_on_char '.' key) in
        if not (String.equal top modname) then begin
          Hashtbl.replace uses.foreign (key ^ "." ^ x) ();
          if not test then Hashtbl.replace uses.reached top ()
        end
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

let check uses ~report ~modname ~source (sg : signature) =
  let exported = ref 0 in
  let rec items prefix =
    List.iter (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            incr exported;
            let key = prefix ^ "." ^ vd.val_name.txt in
            if not (Hashtbl.mem uses.foreign key) then
              report
                (Finding.make ~loc:vd.val_loc ~rule:"R7"
                   ~message:
                     (Printf.sprintf
                        "'%s' is exported but no other compilation unit uses \
                         it; delete it, or drop it from the .mli if only its \
                         own module needs it"
                        key))
        | Tsig_module
            {
              md_name = { txt = Some name; _ };
              md_type = { mty_desc = Tmty_signature sub; _ };
              _;
            } ->
            items (prefix ^ "." ^ name) sub.sig_items
        | _ -> ())
  in
  items modname sg.sig_items;
  if !exported > 0 && not (Hashtbl.mem uses.reached modname) then
    report
      {
        Finding.file = source;
        line = 1;
        col = 0;
        rule = "R7";
        message =
          Printf.sprintf
            "module '%s' has no user outside test/: no entry point reaches \
             it; delete it, or allow it naming the paper result its tests \
             check"
            modname;
      }
