(* crowdmax-lint — typedtree static analysis gate for the crowdmax repo.

   Reads the .cmt files dune emits, reconstructs typing environments
   from their summaries, and enforces the repo-specific rules R1-R7
   (see rules.ml, escape.ml, alloc_free.ml, unused.ml and
   CONTRIBUTING.md). Findings print one per line as

       file:line:col RULE message

   sorted and deduplicated, so output is stable enough to diff against
   a golden file. Suppressions live in a checked-in allowlist (see
   allowlist.ml). Exit status: 0 clean, 1 unsuppressed findings (or,
   under --fail-unused, stale allowlist entries), 2 usage or I/O error.

   Usage:
     crowdmax_lint [--allow FILE] [--require-mli] [--require-mli-dir DIR]
                   [--refs-only DIR] [--exclude SUBSTR] [--fail-unused]
                   [-I DIR] PATH...

   Each PATH is a .cmt file or a directory scanned recursively
   (dune hides them under lib/<x>/.<lib>.objs/byte/). --exclude skips
   any cmt whose path contains SUBSTR (the fixture corpus, when the
   repo-wide gate scans tools/). --require-mli-dir restricts R4 and R7
   to cmts under DIR, so executables (bin/, bench/) ride the gate
   without growing interface files. --refs-only DIR loads the cmts
   under DIR only as R7's users of that surface; no rule runs on them.
   --fail-unused promotes stale-allowlist warnings to failures — the CI
   mode, so suppressions cannot outlive the code they excused.

   Analysis is three-phase: a first pass over every module collects the
   [@@alloc_free] annotations into one cross-module set, then the
   rules run with that set so R6 resolves cross-module calls, then R7
   checks the library interfaces against every unit's references. *)

let usage =
  "usage: crowdmax_lint [--allow FILE] [--require-mli] [--require-mli-dir \
   DIR] [--refs-only DIR] [--exclude SUBSTR] [--fail-unused] [-I DIR] \
   PATH..."

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("crowdmax-lint: error: " ^ s);
      exit 2)
    fmt

(* --- cmt discovery ------------------------------------------------------ *)

let rec scan_path acc path =
  match (Unix.stat path).Unix.st_kind with
  | Unix.S_DIR ->
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry -> scan_path acc (Filename.concat path entry))
        acc entries
  | Unix.S_REG when Filename.check_suffix path ".cmt" -> path :: acc
  | _ -> acc
  | exception Unix.Unix_error (e, _, _) ->
      fail "cannot stat %s: %s" path (Unix.error_message e)

let collect_cmts paths =
  let files = List.fold_left scan_path [] paths in
  List.sort_uniq String.compare files

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.equal (String.sub s i m) sub || loop (i + 1)) in
  m = 0 || loop 0

(* --- per-cmt analysis --------------------------------------------------- *)

let is_generated source =
  (* dune's library alias modules come from generated .ml-gen files and
     carry no user code. *)
  Filename.check_suffix source ".ml-gen"

let source_of (cmt : Cmt_format.cmt_infos) =
  match cmt.Cmt_format.cmt_sourcefile with
  | Some s -> s
  | None -> cmt.Cmt_format.cmt_modname

let modname_of (cmt : Cmt_format.cmt_infos) =
  Alloc_free.normalize_modname cmt.Cmt_format.cmt_modname

let env_of summary_env =
  try Envaux.env_of_only_summary summary_env with _ -> Env.initial

let under dirs path =
  List.exists (fun d -> String.starts_with ~prefix:d path) dirs

let cmti_of cmt_path = Filename.remove_extension cmt_path ^ ".cmti"

let analyze ~require_mli ~mli_dirs ~annotated ~report (cmt_path, cmt) =
  let source = source_of cmt in
  if not (is_generated source) then begin
    let wants_mli = require_mli || under mli_dirs cmt_path in
    if
      wants_mli
      && not (Sys.file_exists (cmti_of cmt_path))
    then
      report
        {
          Finding.file = source;
          line = 1;
          col = 0;
          rule = "R4";
          message =
            "module has no .mli interface (every lib module must declare its \
             surface)";
        };
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
        let modname = modname_of cmt in
        Rules.run { Rules.report; env_of } str;
        Alloc_free.run
          {
            Alloc_free.report;
            env_of;
            modname;
            annotated;
            local = Hashtbl.create 16;
          }
          str;
        Escape.run { Escape.report; env_of; modname } str
    | _ -> ()
  end

(* --- driver ------------------------------------------------------------- *)

let () =
  let allow_file = ref None in
  let require_mli = ref false in
  let mli_dirs = ref [] in
  let refs_only = ref [] in
  let excludes = ref [] in
  let fail_unused = ref false in
  let includes = ref [] in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allow" :: f :: rest ->
        allow_file := Some f;
        parse rest
    | "--require-mli" :: rest ->
        require_mli := true;
        parse rest
    | "--require-mli-dir" :: d :: rest ->
        mli_dirs := d :: !mli_dirs;
        parse rest
    | "--refs-only" :: d :: rest ->
        refs_only := d :: !refs_only;
        parse rest
    | "--exclude" :: s :: rest ->
        excludes := s :: !excludes;
        parse rest
    | "--fail-unused" :: rest ->
        fail_unused := true;
        parse rest
    | "-I" :: d :: rest ->
        includes := d :: !includes;
        parse rest
    | ("--allow" | "--require-mli-dir" | "--refs-only" | "--exclude" | "-I")
      :: [] ->
        fail "%s" usage
    | ("--help" | "-help") :: _ ->
        print_endline usage;
        exit 0
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !paths with [] -> fail "%s" usage | _ :: _ -> ());
  let allow =
    match !allow_file with
    | None -> Allowlist.empty
    | Some f -> (
        try Allowlist.load f with
        | Allowlist.Malformed msg -> fail "%s" msg
        | Sys_error msg -> fail "%s" msg)
  in
  let discover paths =
    List.filter
      (fun f ->
        not (List.exists (fun sub -> contains_substring ~sub f) !excludes))
      (collect_cmts paths)
  in
  let target_files =
    List.filter
      (fun f -> not (under !refs_only f))
      (discover (List.rev !paths))
  in
  (match target_files with
  | [] -> fail "no .cmt files under the given paths"
  | _ :: _ -> ());
  let read f =
    match Cmt_format.read_cmt f with
    | cmt -> (f, cmt)
    | exception _ -> fail "cannot read cmt file %s" f
  in
  let cmts = List.map read target_files in
  let ref_cmts = List.map read (discover (List.rev !refs_only)) in
  let cmt_files = target_files @ List.map fst ref_cmts in
  (* Load path for environment reconstruction: the directories holding
     the scanned cmts (their cmis live alongside), any -I extras, plus
     whatever absolute paths the compiler itself was invoked with
     (external deps such as fmt/unix), and the stdlib. *)
  let dirs =
    let tbl = Hashtbl.create 16 in
    let out = ref [] in
    let add d =
      if
        (not (String.equal d ""))
        && (not (Hashtbl.mem tbl d))
        && Sys.file_exists d
      then begin
        Hashtbl.add tbl d ();
        out := d :: !out
      end
    in
    List.iter (fun f -> add (Filename.dirname f)) cmt_files;
    List.iter add (List.rev !includes);
    List.iter
      (fun (_, cmt) ->
        List.iter
          (fun d -> if Filename.is_relative d then () else add d)
          cmt.Cmt_format.cmt_loadpath)
      (cmts @ ref_cmts);
    add Config.standard_library;
    List.rev !out
  in
  Load_path.init ~auto_include:Load_path.no_auto_include dirs;
  Envaux.reset_cache ();
  (* Phase 1: the cross-module [@@alloc_free] promise set. *)
  let annotated = Hashtbl.create 64 in
  List.iter
    (fun (_, cmt) ->
      if not (is_generated (source_of cmt)) then
        match cmt.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str ->
            List.iter
              (fun key -> Hashtbl.replace annotated key ())
              (Alloc_free.collect ~modname:(modname_of cmt) str)
        | _ -> ())
    cmts;
  (* Phase 2: the rules. *)
  let findings = ref [] in
  let report f = findings := f :: !findings in
  List.iter
    (analyze ~require_mli:!require_mli ~mli_dirs:!mli_dirs ~annotated ~report)
    cmts;
  (* Phase 3: R7, the library surface against every unit's references. *)
  let uses = Unused.create () in
  List.iter
    (fun (_, cmt) ->
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str when not (is_generated (source_of cmt))
        ->
          Unused.collect uses ~env_of ~modname:(modname_of cmt)
            ~source:(source_of cmt) str
      | _ -> ())
    (cmts @ ref_cmts);
  List.iter
    (fun (cmt_path, cmt) ->
      let cmti = cmti_of cmt_path in
      if
        under !mli_dirs cmt_path
        && (not (is_generated (source_of cmt)))
        && Sys.file_exists cmti
      then
        match Cmt_format.read_cmt cmti with
        | { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } as intf ->
            Unused.check uses ~report ~modname:(modname_of cmt)
              ~source:(source_of intf) sg
        | _ -> ()
        | exception _ -> fail "cannot read cmti file %s" cmti)
    cmts;
  let all = List.sort_uniq Finding.compare !findings in
  let kept, suppressed =
    List.partition (fun f -> not (Allowlist.suppresses allow f)) all
  in
  List.iter (fun f -> print_endline (Finding.to_string f)) kept;
  let unused = Allowlist.unused allow in
  List.iter
    (fun e ->
      Printf.printf "crowdmax-lint: %s: unused allowlist entry '%s' (%s:%d)\n"
        (if !fail_unused then "error" else "warning")
        (Allowlist.describe e) allow.Allowlist.file e.Allowlist.e_source_line)
    unused;
  Printf.printf "crowdmax-lint: %d module(s), %d finding(s), %d suppressed\n"
    (List.length
       (List.filter (fun (_, c) -> not (is_generated (source_of c))) cmts))
    (List.length kept) (List.length suppressed);
  let clean =
    match (kept, unused) with
    | [], [] -> true
    | [], _ :: _ -> not !fail_unused
    | _ :: _, _ -> false
  in
  exit (if clean then 0 else 1)
