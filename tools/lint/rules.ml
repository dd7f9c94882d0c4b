(* The crowdmax-lint rules, run over one compiled module's typedtree.

   R1 — no polymorphic structural comparison at non-immediate types.
        Every occurrence of Stdlib's [=] [<>] [compare] [min] [max]
        [Hashtbl.hash] [List.mem] [List.assoc] [List.assoc_opt]
        [List.mem_assoc] is checked against the type it was
        instantiated at (read off the typedtree, so aliases and
        partial applications — e.g. [List.sort compare] — are seen
        too). This is the exact bug class PR 1 and PR 2 fixed by hand
        in Stats.percentile, Engine.equal_stats and the Scoring /
        Ground_truth sorts. The ordering operators [<] [>] [<=] [>=]
        are checked too, under a relaxed verdict: boxed scalars
        (float, string, ...) are fine — their order is the intended
        one and direct applications specialize — but structured types
        are not. [(sw, w) > (sl, l)] on int pairs, the escape
        [Rwl.break_cycles] shipped with, silently means lexicographic
        comparison; spell that out with [Int.compare]. An operand
        whose type is still a type variable at the primitive (a
        function generalized over what it compares) is flagged under
        either verdict: the comparison stays polymorphic at runtime.

   R2 — determinism. The deterministic-replication guarantee (same
        seed + same jobs count => bit-identical aggregates) dies the
        moment core code reads wall clocks, the global
        [Stdlib.Random], or accumulates out of a hash table in bucket
        order. Flags [Random.*], [Sys.time], [Unix.gettimeofday],
        [Unix.time], and [Hashtbl.iter]/[fold]/[to_seq*]. Timing
        instrumentation goes through the allowlist.

   R3 — domain-safety. Top-level mutable values (refs, arrays, hash
        tables, buffers, ...) are shared by every domain of the
        [Crowdmax_util.Parallel] pool; [Engine.replicate ~jobs] can
        run any lib code on any domain, so every lib module counts as
        reachable. Only module-level bindings are flagged — mutable
        state created inside a function is domain-local.

   R4 — interface coverage (implemented in the driver: a module's
        [.cmt] must have a sibling [.cmti]). *)

open Typedtree

type ctx = {
  report : Finding.t -> unit;
  env_of : Env.t -> Env.t; (* cmt summary env -> reconstructed env *)
}

let report ctx ~loc ~rule ~message =
  ctx.report (Finding.make ~loc ~rule ~message)

(* "Stdlib.List.mem" -> Some "List.mem"; non-Stdlib paths -> None. *)
let stdlib_suffix path =
  let name = Path.name path in
  let prefix = "Stdlib." in
  let lp = String.length prefix in
  if String.length name > lp && String.equal (String.sub name 0 lp) prefix then
    Some (String.sub name lp (String.length name - lp))
  else None

(* --- R1 ---------------------------------------------------------------- *)

let r1_ops =
  [
    "=";
    "<>";
    "compare";
    "min";
    "max";
    "Hashtbl.hash";
    "List.mem";
    "List.assoc";
    "List.assoc_opt";
    "List.mem_assoc";
  ]

(* Ordering operators get the relaxed (relational) verdict: boxed
   scalars are allowed, structured types flagged. *)
let r1_relational_ops = [ "<"; ">"; "<="; ">=" ]

(* The instantiated type of the flagged ident is an arrow whose first
   parameter is the compared/hashed/searched value ('a for all r1_ops),
   so that parameter tells us what 'a became at this use site. *)
let first_param env ty =
  match Types.get_desc (Type_safety.expand env ty) with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let check_r1 ctx ~relational op e =
  let env = ctx.env_of e.exp_env in
  match first_param env e.exp_type with
  | None -> ()
  | Some arg -> (
      match Type_safety.operand_verdict ~relational env arg with
      | Type_safety.Safe -> ()
      | Type_safety.Unsafe why ->
          report ctx ~loc:e.exp_loc ~rule:"R1"
            ~message:
              (Printf.sprintf "polymorphic '%s' at type %s: %s" op
                 (Type_safety.to_string arg) why))

(* --- R2 ---------------------------------------------------------------- *)

let r2_banned =
  [
    ("Sys.time", "wall-clock read breaks replay determinism");
    ("Unix.gettimeofday", "wall-clock read breaks replay determinism");
    ("Unix.time", "wall-clock read breaks replay determinism");
    ("Hashtbl.iter", "hash-table iteration order is unspecified; iterate sorted keys");
    ("Hashtbl.fold", "hash-table fold order is unspecified; fold over sorted keys");
    ("Hashtbl.to_seq", "hash-table sequence order is unspecified");
    ("Hashtbl.to_seq_keys", "hash-table sequence order is unspecified");
    ("Hashtbl.to_seq_values", "hash-table sequence order is unspecified");
  ]

let check_r2 ctx op loc =
  let random_prefix = "Random." in
  let lr = String.length random_prefix in
  if
    String.length op > lr && String.equal (String.sub op 0 lr) random_prefix
  then
    report ctx ~loc ~rule:"R2"
      ~message:
        (Printf.sprintf
           "'%s': Stdlib.Random is shared global state; use Crowdmax_util.Rng \
            with an explicit seed"
           op)
  else
    match List.find_opt (fun (n, _) -> String.equal n op) r2_banned with
    | Some (_, why) ->
        report ctx ~loc ~rule:"R2"
          ~message:(Printf.sprintf "'%s': %s" op why)
    | None -> ()

(* --- R1 + R2 over every expression ------------------------------------- *)

let check_ident ctx path e =
  (* R1's operators all live in Stdlib, so only Stdlib-resolved idents
     are candidates — a module's own typed [compare]/[min]/[max] must
     not be mistaken for the polymorphic one. R2 also bans
     standalone-otherlib reads (Unix), matched by full path. *)
  (match stdlib_suffix path with
  | Some op ->
      if List.exists (String.equal op) r1_ops then
        check_r1 ctx ~relational:false op e
      else if List.exists (String.equal op) r1_relational_ops then
        check_r1 ctx ~relational:true op e
  | None -> ());
  let op =
    match stdlib_suffix path with Some op -> op | None -> Path.name path
  in
  check_r2 ctx op e.exp_loc

let iterator ctx =
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> check_ident ctx path e
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  { Tast_iterator.default_iterator with expr }

(* --- R3: module-level mutable bindings --------------------------------- *)

let rec pattern_name p =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some (Ident.name id)
  | Tpat_alias (_, id, _) -> Some (Ident.name id)
  | Tpat_tuple ps -> List.find_map pattern_name ps
  | _ -> None

let check_toplevel_binding ctx vb =
  let env = ctx.env_of vb.vb_expr.exp_env in
  match Type_safety.mutable_verdict env vb.vb_expr.exp_type with
  | None -> ()
  | Some why ->
      let name =
        match pattern_name vb.vb_pat with
        | Some n -> Printf.sprintf "'%s'" n
        | None -> "binding"
      in
      report ctx ~loc:vb.vb_pat.pat_loc ~rule:"R3"
        ~message:
          (Printf.sprintf
             "top-level %s is %s: module-level mutable state is shared across \
              the Parallel domain pool"
             name why)

let rec check_structure_r3 ctx str = List.iter (check_item_r3 ctx) str.str_items

and check_item_r3 ctx item =
  match item.str_desc with
  | Tstr_value (_, vbs) -> List.iter (check_toplevel_binding ctx) vbs
  | Tstr_module mb -> check_module_r3 ctx mb.mb_expr
  | Tstr_recmodule mbs ->
      List.iter (fun mb -> check_module_r3 ctx mb.mb_expr) mbs
  | Tstr_include incl -> check_module_r3 ctx incl.incl_mod
  | _ -> ()

and check_module_r3 ctx me =
  match me.mod_desc with
  | Tmod_structure s -> check_structure_r3 ctx s
  | Tmod_constraint (me, _, _, _) -> check_module_r3 ctx me
  | _ -> ()

(* --- entry point -------------------------------------------------------- *)

let run ctx (str : structure) =
  let it = iterator ctx in
  it.structure it str;
  check_structure_r3 ctx str
