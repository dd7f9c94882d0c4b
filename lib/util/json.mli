(** Minimal JSON encoder/decoder (no external dependencies).

    Used to persist experiment results and to give the CLI a
    machine-readable output mode. Supports the full JSON grammar except
    that numbers are always decoded as [Float] (standard for JSON) and
    non-finite floats are rejected at encode time. *)

type t =
  | Null
  | Bool of bool
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** Convenience: [Float (float_of_int n)]. *)

val to_string : ?pretty:bool -> t -> string
(** Encode. Raises [Invalid_argument] on NaN or infinite floats.
    [pretty] (default false) adds newlines and two-space indent. *)

exception Parse_error of { position : int; message : string }

val of_string : string -> t
(** Decode. Raises [Parse_error] on malformed input (with the byte
    position of the failure). Rejects trailing garbage. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] for missing keys or non-objects. *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] succeeds only on integral floats. *)

val to_bool : t -> bool option
val to_list : t -> t list option
val to_str : t -> string option

val equal : t -> t -> bool
(** Structural equality; object key order is significant, and numbers
    compare with [Float.equal]. *)
