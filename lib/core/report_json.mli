(** Writing a JSON tree to a file. *)

val write_file : path:string -> Obs.Json.t -> unit
(** Compact JSON ({!Obs.Json.write}) and a trailing newline; the file
    is created or truncated. *)
