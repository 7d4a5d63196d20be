(** Minimal JSON tree, emitter and parser — no external dependency.

    Run reports, traces and experiment tables are exported as JSON so the
    numbers in EXPERIMENTS.md and the bench trajectory can be regenerated
    and diffed by machines instead of hand-quoted. The emitter produces
    standard JSON (2-space indent, or compact with [~minify]); the parser
    accepts what the emitter produces — enough for the round-trip checks
    in the test suite and for downstream tooling to validate exports.

    Integers stay exact ([Int] is emitted without a decimal point); NaN has
    no JSON representation and is emitted as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

val to_string : ?minify:bool -> t -> string
(** Render. [minify] (default false) drops all whitespace. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    line, column and byte offset of the failure. [max_depth] (default
    512) bounds container nesting, so adversarial input — say, a fault
    plan of a hundred thousand ['[']s — fails with a clean [Error]
    instead of exhausting the stack. Trailing garbage after the value is
    rejected. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key], if any;
    [None] on non-objects. *)

