(** Minimal JSON tree, writer, and parser.

    Dependency-free on purpose (the container has no yojson): enough of
    RFC 8259 for the Chrome [trace_event] sink, the snapshot and health
    streams, the benchmark's result files, and the tests that validate
    them. Numbers are floats on parse; the writer prints integers
    without a fractional part so round-trips of counters stay
    readable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val write : Buffer.t -> t -> unit
(** Compact (no whitespace) serialization; strings are escaped per RFC
    8259, non-finite floats become [null]. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Strict parser: one value, trailing whitespace only. Integral numbers
    without exponent/fraction parse as [Int], others as [Float]. *)

(* Accessors used by consumers and tests; all total. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_list_opt : t -> t list option
val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)
