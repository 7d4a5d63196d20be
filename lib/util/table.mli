(** Aligned ASCII table rendering for experiment reports.

    All experiment harnesses print through this module so that the output of
    [bin/experiments] and [lcs experiment] is uniform and diffable. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] if the arity differs from the
    header. *)

val add_int_row : t -> int list -> unit
(** Convenience: a row of integers. *)

val render : t -> string
(** Renders with a header rule and column padding. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val to_json : t -> Json.t
(** Structured form: [{"title": ..., "headers": [...], "rows": [[...]]}]
    (the title field is omitted for untitled tables). Cells stay strings —
    exactly what {!render} would print, so the JSON export of a table
    always matches the ASCII rendering. *)

val to_csv : t -> string
(** RFC-4180 CSV: a header line followed by one line per row; cells
    containing commas, quotes or newlines are quoted. *)

val fmt_float : float -> string
(** Compact float formatting used across experiment tables: integers print
    without a fractional part, otherwise two decimals. *)
