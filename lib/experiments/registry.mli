(** The experiment registry: every table/figure of the reproduction, by id.

    [all] lists them in order E1–E20; [find] resolves an id
    case-insensitively. Used by [bin/experiments] and by the bench
    harness. *)

val all : (string * (?seed:int -> unit -> Exp_types.outcome)) list

val find : string -> (?seed:int -> unit -> Exp_types.outcome) option

val run_all : ?seed:int -> unit -> unit
(** Run every experiment and print its outcome. *)
