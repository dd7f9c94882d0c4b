(* Type classification for the lint rules.

   [poly_verdict] answers "is it safe to apply the polymorphic
   structural comparison primitives at this type?" (rule R1). Safe
   means the runtime representation is immediate-or-equivalent: int,
   bool, char, unit, enumeration variants (all constructors constant),
   and containers thereof. Everything float-bearing, boxed or
   structured is unsafe: floats compare NaN-hostilely under [=] /
   [compare] / [min] / [max], and records / tuples / payload variants
   silently pick up field-order semantics nobody asked for.

   [~relational:true] relaxes the verdict for the ordering operators
   [<] [>] [<=] [>=]: boxed scalars (float, string, bytes, int32,
   int64, nativeint) become Safe — the compiler specializes direct
   applications to the primitive comparison and their total order is
   the intended one — while structured types (tuples, records, payload
   variants, abstract) stay Unsafe: ordering a boxed tuple with [>]
   silently means lexicographic-by-field, the exact escape
   [Rwl.break_cycles] shipped with.

   [operand_verdict] is [poly_verdict] at a comparison's operand: an
   operand still typed by a type variable there is Unsafe.

   [mutable_verdict] answers "does this type denote shared mutable
   storage?" (rule R3): refs, arrays, bytes, hash tables, buffers,
   queues, stacks, RNG state, and records with mutable fields. Used on
   top-level bindings only — a module-level mutable value is shared by
   every domain the [Crowdmax_util.Parallel] pool runs.

   Both predicates chase manifests with [Ctype.expand_head] under the
   environment reconstructed from the cmt summary; when the
   environment is incomplete they degrade to the structural shape and
   give unknown types the benefit of the doubt, so a broken load path
   produces missed findings rather than false positives. *)

open Types

type verdict = Safe | Unsafe of string

let expand env ty = try Ctype.expand_head env ty with _ -> ty

let max_depth = 24

let constant_only_variant cstrs =
  List.for_all
    (fun c -> match c.cd_args with Cstr_tuple [] -> true | _ -> false)
    cstrs

let rec poly_verdict ?(relational = false) ?(depth = 0) env ty =
  if depth > max_depth then Safe
  else
    let descend t = poly_verdict ~relational ~depth:(depth + 1) env t in
    let ty = expand env ty in
    match get_desc ty with
    | Tvar _ | Tunivar _ -> Safe (* a parameter of a container: see [operand_verdict] *)
    | Tpoly (t, _) -> descend t
    | Tlink t | Tsubst (t, _) -> descend t
    | Tarrow _ -> Unsafe "a function type (structural comparison raises)"
    | Ttuple _ -> Unsafe "a tuple (boxed; compare componentwise with typed comparators)"
    | Tobject _ -> Unsafe "an object type"
    | Tpackage _ -> Unsafe "a first-class module"
    | Tfield _ | Tnil -> Safe
    | Tvariant row ->
        let constant (_, f) =
          match row_field_repr f with
          | Rpresent None | Rabsent -> true
          | Rpresent (Some _) -> false
          | Reither (constant, _, _) -> constant
        in
        if List.for_all constant (row_fields row) then Safe
        else Unsafe "a polymorphic variant with payloads"
    | Tconstr (p, args, _) -> constr_verdict ~relational env depth p args

and constr_verdict ~relational env depth p args =
  let descend t = poly_verdict ~relational ~depth:(depth + 1) env t in
  let is q = Path.same p q in
  if is Predef.path_int || is Predef.path_bool || is Predef.path_char
     || is Predef.path_unit
  then Safe
  else if
    (* Ordering operators at boxed scalars are deliberate and
       compiler-specialized; equality/hashing there is still banned. *)
    relational
    && (is Predef.path_float || is Predef.path_string || is Predef.path_bytes
       || is Predef.path_int32 || is Predef.path_int64
       || is Predef.path_nativeint)
  then Safe
  else if is Predef.path_float then
    Unsafe "float (NaN-hostile; use Float.equal/Float.compare/Float.min/Float.max)"
  else if is Predef.path_string then Unsafe "string (use String.equal/String.compare)"
  else if is Predef.path_bytes then Unsafe "bytes (use Bytes.equal/Bytes.compare)"
  else if is Predef.path_int32 then Unsafe "a boxed int32 (use Int32.equal/Int32.compare)"
  else if is Predef.path_int64 then Unsafe "a boxed int64 (use Int64.equal/Int64.compare)"
  else if is Predef.path_nativeint then
    Unsafe "a boxed nativeint (use Nativeint.equal/Nativeint.compare)"
  else if is Predef.path_floatarray then Unsafe "a float array (float-bearing)"
  else if is Predef.path_lazy_t then Unsafe "a lazy value (forcing under compare)"
  else if is Predef.path_list || is Predef.path_array || is Predef.path_option
  then
    if relational then
      (* Equality at containers-of-immediates is honest elementwise
         equality, but *ordering* one silently means lexicographic —
         the same implicit-semantics trap as a tuple. *)
      Unsafe
        "a structured container (ordering is silently lexicographic; write \
         an explicit comparator)"
    else match args with t :: _ -> descend t | [] -> Safe
  else
    match Env.find_type p env with
    | exception _ -> Safe (* unknown type: don't guess *)
    | decl -> (
        match decl.type_kind with
        | Type_record _ -> Unsafe "a record (write a fieldwise typed equality)"
        | Type_open -> Unsafe "an open extensible type"
        | Type_variant (cstrs, _) ->
            if constant_only_variant cstrs then Safe
            else Unsafe "a variant with payloads (write a typed comparator)"
        | Type_abstract ->
            (* expand_head already chased manifests, so this is truly
               opaque from here. *)
            Unsafe "an abstract type (representation may be float-bearing)")

(* R1's verdict on a comparison's operand type. An operand that is
   itself still a type variable where the primitive is applied — inside
   a function generalized over its argument — leaves the comparison
   polymorphic in the compiled code: it runs the generic [caml_compare]
   family (with its float-array tag tests) whatever type a caller
   passes, and no use site ever shows the comparison to R1. A type
   variable under a container ([_ list], [_ option]) keeps the old
   benefit of the doubt. *)
let operand_verdict ?relational env ty =
  match get_desc (expand env ty) with
  | Tvar _ | Tunivar _ ->
      Unsafe
        "a type variable (the comparison stays polymorphic at runtime; \
         annotate the operand's type)"
  | _ -> poly_verdict ?relational env ty

let stdlib_mutable_containers =
  [
    ("ref", "a ref cell");
    ("Hashtbl.t", "a hash table");
    ("Buffer.t", "a buffer");
    ("Queue.t", "a mutable queue");
    ("Stack.t", "a mutable stack");
    ("Random.State.t", "a mutable RNG state");
    ("Atomic.t", "an atomic cell");
  ]

(* Stdlib submodule types appear under their flattened compilation-unit
   names in cmts (Stdlib__Hashtbl.t), under the aliased spelling
   (Stdlib.Hashtbl.t) in some envs, and bare (ref). Strip either prefix
   before matching. *)
let stdlib_local_name p =
  let name = Path.name p in
  let strip prefix =
    if String.starts_with ~prefix name then
      Some (String.sub name (String.length prefix)
              (String.length name - String.length prefix))
    else None
  in
  match strip "Stdlib__" with
  | Some n -> n
  | None -> ( match strip "Stdlib." with Some n -> n | None -> name)

let rec mutable_verdict ?(depth = 0) env ty =
  if depth > max_depth then None
  else
    let descend t = mutable_verdict ~depth:(depth + 1) env t in
    let ty = expand env ty in
    match get_desc ty with
    | Ttuple ts -> List.find_map descend ts
    | Tlink t | Tsubst (t, _) -> descend t
    | Tpoly (t, _) -> descend t
    | Tconstr (p, args, _) ->
        let is q = Path.same p q in
        if is Predef.path_array || is Predef.path_floatarray then
          Some "a mutable array"
        else if is Predef.path_bytes then Some "mutable bytes"
        else if is Predef.path_list || is Predef.path_option then
          (match args with t :: _ -> descend t | [] -> None)
        else
          let name = stdlib_local_name p in
          (match
             List.find_opt
               (fun (n, _) -> String.equal n name)
               stdlib_mutable_containers
           with
          | Some (_, why) -> Some why
          | None -> (
              match Env.find_type p env with
              | exception _ -> None
              | decl -> (
                  match decl.type_kind with
                  | Type_record (lbls, _)
                    when List.exists
                           (fun l ->
                             match l.ld_mutable with
                             | Mutable -> true
                             | Immutable -> false)
                           lbls ->
                      Some "a record with mutable fields"
                  | _ -> None)))
    | _ -> None

let to_string ty = Format.asprintf "%a" Printtyp.type_expr ty
