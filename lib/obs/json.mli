(** JSON values and their one printer. *)

type t =
  | Null | Bool of bool | Int of int | Float of float | String of string
  | List of t list | Obj of (string * t) list

val escape : Buffer.t -> string -> unit
(** [escape b s] appends [s] with JSON string escapes, without quotes. *)

val to_string : t -> string
(** Members print as ["key": value], in list order; a list or object
    holding no list or object prints on one line.  A finite float prints
    with as many significant digits (15 to 17) as [float_of_string] needs
    to read it back as the same float; a non-finite one prints as [null]. *)
