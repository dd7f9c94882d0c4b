(* R6 — the [@@alloc_free] allocation-discipline gate.

   A function binding carrying the [@@alloc_free] attribute (or any
   expression carrying [@alloc_free]) promises its body performs no
   heap allocation in steady state. The vanilla compiler ignores the
   attribute, so annotated code builds everywhere; this module makes
   the promise checkable: it walks the annotated typedtree bodies and
   flags every construct that compiles to an allocation — tuples,
   records, non-constant constructors, array literals, closures, lazy
   values, partial applications — and every call that does not resolve
   to another [@@alloc_free] function or to a known non-allocating
   primitive.

   The check is conservative *structurally* but has a documented
   soundness boundary on float/int64 boxing (DESIGN.md §6g): whether a
   float temporary is boxed depends on compilation mode (dev profile's
   -opaque defeats cross-module unboxing), so boxing is out of scope
   statically and is cross-checked dynamically by the Gc.minor_words
   harness in test/test_alloc_free.ml. Likewise [ref] is allowed under
   the reference-unboxing proviso: a local non-escaping int/float ref
   compiles to a stack slot; escaping refs are the harness's job to
   catch.

   Escape hatches:
   - branches that statically raise ([raise]/[failwith]/[invalid_arg])
     are excluded, including their argument expressions — error paths
     may build messages;
   - an expression marked [@alloc_cold] is excluded wholesale; the
     repo uses it for amortized growth paths ([grow], [grow_pool]) and
     unverifiable caller-supplied callbacks ([on_complete]).

   Name resolution: annotated functions are collected across every
   scanned cmt in a first pass and keyed "Module.fn" with the wrapped
   library mangling stripped (Crowdmax_util__Rng -> Rng), so
   cross-module calls check against the same namespace; local module
   aliases (module T = Crowdmax_tournament.Tournament) are chased
   through [Mty_alias] to the same canonical key. *)

open Typedtree

type ctx = {
  report : Finding.t -> unit;
  env_of : Env.t -> Env.t;
  modname : string; (* normalized: Crowdmax_util__Rng -> Rng *)
  annotated : (string, unit) Hashtbl.t; (* global "Module.fn" set *)
  local : (string, unit) Hashtbl.t; (* Ident.unique_name of local annotated *)
}

let attr_free = "alloc_free"
let attr_cold = "alloc_cold"

let has_attr name attrs =
  List.exists
    (fun a -> String.equal a.Parsetree.attr_name.Location.txt name)
    attrs

(* --- key normalization -------------------------------------------------- *)

let after_last_dunder s =
  let n = String.length s in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if Char.equal s.[i] '_' && Char.equal s.[i + 1] '_' then j := i + 2
  done;
  String.sub s !j (n - !j)

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let normalize_modname m = after_last_dunder (last_component m)

let rec canonical_module env p =
  match (Env.find_module p env).Types.md_type with
  | Types.Mty_alias p' -> canonical_module env p'
  | _ -> p
  | exception _ -> p

(* "Rng.int" for module members, "<modname>.fn" for module-local
   idents, bare names ("unsafe_get" never occurs bare; "incr", "+.")
   for Stdlib toplevel values. *)
let key_of_path ~modname env p =
  match p with
  | Path.Pident id -> modname ^ "." ^ Ident.name id
  | Path.Pdot (m, x) ->
      let mname = normalize_modname (Path.name (canonical_module env m)) in
      if String.equal mname "Stdlib" then x else mname ^ "." ^ x
  | Path.Papply _ | Path.Pextra_ty _ -> Path.name p

(* --- the non-allocating primitive allowlist ----------------------------- *)

(* Every entry either compiles to inline instructions or is an
   [@@noalloc] external ([sin], [**], the unboxed Int64 arithmetic).
   [ref]/[!]/[:=]/[incr]/[decr] ride on the reference-unboxing proviso
   documented above. Allocation-on-failure (bounds-check raises) does
   not count: error paths are excluded by design. *)
let primitives =
  [
    (* integer and word arithmetic *)
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr";
    "asr"; "succ"; "pred"; "abs"; "~-"; "~+";
    (* float arithmetic and math externals *)
    "+."; "-."; "*."; "/."; "~-."; "~+."; "**"; "sqrt"; "exp"; "log";
    "log10"; "log1p"; "expm1"; "sin"; "cos"; "tan"; "asin"; "acos"; "atan";
    "atan2"; "sinh"; "cosh"; "tanh"; "ceil"; "floor"; "abs_float";
    "mod_float"; "float_of_int"; "int_of_float"; "truncate"; "float";
    (* comparisons, logic *)
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "not"; "&&"; "||";
    "compare"; "min"; "max"; "ignore";
    (* references, under the unboxing proviso *)
    "ref"; "!"; ":="; "incr"; "decr";
    (* field projections *)
    "fst"; "snd";
    (* application operators: the compiler rewrites them to direct calls *)
    "@@"; "|>";
    (* chars *)
    "int_of_char"; "char_of_int"; "Char.code"; "Char.chr"; "Char.unsafe_chr";
    (* array / bytes / string access (no make/copy/sub/append here) *)
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "String.length"; "String.get"; "String.unsafe_get";
    (* typed scalar comparisons *)
    "Int.compare"; "Int.equal"; "Int.max"; "Int.min"; "Int.abs";
    "Float.compare"; "Float.equal"; "Float.is_nan"; "Float.abs";
    "Float.of_int"; "Float.to_int";
    (* [%identity] on an immediate: a compare result as a 0/1 int *)
    "Bool.to_int";
    (* unboxed int64 externals (results may box at call boundaries —
       the dynamic harness's concern, not a heap-block allocation) *)
    "Int64.add"; "Int64.sub"; "Int64.mul"; "Int64.div"; "Int64.rem";
    "Int64.neg"; "Int64.logand"; "Int64.logor"; "Int64.logxor";
    "Int64.lognot"; "Int64.shift_left"; "Int64.shift_right";
    "Int64.shift_right_logical"; "Int64.of_int"; "Int64.to_int";
    "Int64.of_float"; "Int64.to_float"; "Int64.compare"; "Int64.equal";
    "Int32.of_int"; "Int32.to_int"; "Nativeint.of_int"; "Nativeint.to_int";
    (* atomics: operations on an existing cell (Atomic.make is not here) *)
    "Atomic.get"; "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set";
    "Atomic.fetch_and_add"; "Atomic.incr"; "Atomic.decr";
  ]

let raise_like = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* --- collecting annotated bindings -------------------------------------- *)

let annotated_bindings str =
  let acc = ref [] in
  let value_binding sub vb =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when has_attr attr_free vb.vb_attributes ->
        acc := (id, vb) :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.structure it str;
  List.rev !acc

(* Phase 1 of the driver: the global "Module.fn" names this module
   promises allocation-free, local bindings included (their key is
   harmless globally and lets sibling annotated code call them). *)
let collect ~modname str =
  List.map (fun (id, _) -> modname ^ "." ^ Ident.name id)
    (annotated_bindings str)

(* --- the body walk ------------------------------------------------------ *)

let report ctx ~loc ~who msg =
  ctx.report
    (Finding.make ~loc ~rule:"R6"
       ~message:(Printf.sprintf "[@@alloc_free] '%s' %s" who msg))

let rec check ctx ~who e =
  if has_attr attr_cold e.exp_attributes then ()
  else
    let flag msg = report ctx ~loc:e.exp_loc ~who msg in
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ | Texp_unreachable | Texp_instvar _ ->
        ()
    | Texp_let (_, vbs, body) ->
        List.iter (fun vb -> check ctx ~who vb.vb_expr) vbs;
        check ctx ~who body
    | Texp_sequence (a, b) ->
        check ctx ~who a;
        check ctx ~who b
    | Texp_ifthenelse (c, t, f) ->
        check ctx ~who c;
        check ctx ~who t;
        Option.iter (check ctx ~who) f
    | Texp_while (c, b) ->
        check ctx ~who c;
        check ctx ~who b
    | Texp_for (_, _, lo, hi, _, body) ->
        check ctx ~who lo;
        check ctx ~who hi;
        check ctx ~who body
    | Texp_match (scrut, cases, _) ->
        check ctx ~who scrut;
        List.iter
          (fun c ->
            Option.iter (check ctx ~who) c.c_guard;
            check ctx ~who c.c_rhs)
          cases
    | Texp_try (b, cases) ->
        check ctx ~who b;
        List.iter
          (fun c ->
            Option.iter (check ctx ~who) c.c_guard;
            check ctx ~who c.c_rhs)
          cases
    | Texp_field (e', _, _) -> check ctx ~who e'
    | Texp_setfield (a, _, _, b) ->
        check ctx ~who a;
        check ctx ~who b
    | Texp_assert (e', _) ->
        (* Assert_failure's payload is a static block; only the
           condition runs in steady state. *)
        check ctx ~who e'
    | Texp_open (_, e') -> check ctx ~who e'
    | Texp_letexception (_, e') -> check ctx ~who e'
    | Texp_construct (_, cd, args) -> (
        match args with
        | [] -> ()
        | _ :: _ ->
            flag
              (Printf.sprintf "allocates constructor '%s'"
                 cd.Types.cstr_name))
    | Texp_variant (_, None) -> ()
    | Texp_variant (l, Some _) ->
        flag (Printf.sprintf "allocates polymorphic variant '`%s'" l)
    | Texp_tuple _ -> flag "allocates a tuple"
    | Texp_record _ -> flag "allocates a record"
    | Texp_array [] -> () (* the empty literal is a static block *)
    | Texp_array _ -> flag "allocates an array literal"
    | Texp_function _ ->
        flag "allocates a closure (fun/function); hoist it or de-closure"
    | Texp_lazy _ -> flag "allocates a lazy thunk"
    | Texp_apply (head, args) -> check_apply ctx ~who e head args
    | _ ->
        flag
          "uses a construct not provably allocation-free (object, module, \
           let-op, ...); restructure or mark it [@alloc_cold]"

and check_apply ctx ~who e head args =
  if has_attr attr_cold head.exp_attributes then ()
  else
    let check_args () =
      List.iter (fun (_, a) -> Option.iter (check ctx ~who) a) args
    in
    match head.exp_desc with
    | Texp_ident (p, _, _) ->
        let env = ctx.env_of head.exp_env in
        let key = key_of_path ~modname:ctx.modname env p in
        if List.exists (String.equal key) raise_like then
          (* statically-raising branch: the message building on the
             error path is not steady-state allocation *)
          ()
        else begin
          let allowed =
            List.exists (String.equal key) primitives
            || Hashtbl.mem ctx.annotated key
            ||
            match p with
            | Path.Pident id -> Hashtbl.mem ctx.local (Ident.unique_name id)
            | _ -> false
          in
          if not allowed then
            report ctx ~loc:e.exp_loc ~who
              (Printf.sprintf
                 "calls '%s', which is neither [@@alloc_free] nor a known \
                  non-allocating primitive (annotate the callee or mark the \
                  call [@alloc_cold])"
                 key);
          (let renv = ctx.env_of e.exp_env in
           match Types.get_desc (Type_safety.expand renv e.exp_type) with
           | Types.Tarrow _ ->
               report ctx ~loc:e.exp_loc ~who
                 (Printf.sprintf
                    "partially applies '%s' (the result is a function): a \
                     partial application allocates a closure"
                    key)
           | _ -> ());
          check_args ()
        end
    | _ ->
        report ctx ~loc:e.exp_loc ~who
          "calls through a computed function (unverifiable); mark the call \
           [@alloc_cold]";
        check_args ()

(* An annotated binding's leading fun/function chain is its parameter
   list, not a steady-state closure allocation: the closure for a
   top-level function is static, and a local one is the binding's own
   one-time cost, accepted when the annotation was placed. Bodies of
   every case are checked. *)
let rec fn_body ctx ~who e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          Option.iter (check ctx ~who) c.c_guard;
          fn_body ctx ~who c.c_rhs)
        cases
  | _ -> check ctx ~who e

let run ctx str =
  let bindings = annotated_bindings str in
  List.iter
    (fun (id, _) -> Hashtbl.replace ctx.local (Ident.unique_name id) ())
    bindings;
  List.iter
    (fun (id, vb) ->
      fn_body ctx ~who:(ctx.modname ^ "." ^ Ident.name id) vb.vb_expr)
    bindings;
  (* expression-level [@alloc_free] roots (e.g. a hot event loop inside
     an otherwise-allocating function) *)
  let expr sub e =
    if has_attr attr_free e.exp_attributes then
      check ctx ~who:(ctx.modname ^ " (expression)") e;
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str
