(** Machine-readable mirrors of {!Report}'s tables.

    Each converter renders the same row list that the pretty-printer
    receives, so the JSON numbers always match the printed tables. The
    result feeds {!results_file}, the stable [BENCH_results.json]
    schema emitted by [bench/main.exe] (documented in EXPERIMENTS.md):

    {v
    { "schema_version": 1,
      "generated_by": "bench/main.exe",
      "quick": bool,
      "only": string | null,
      "experiments": [
        { "id": "E1", "title": "...", "rows": [ {...}, ... ] },
        ...
      ] }
    v}

    Row fields are experiment-specific but stable per id; numbers are
    raw (throughput in records per timestep, makespans in timesteps,
    micro-benchmark estimates in ns/run). *)

val fig5 : Experiments.fig5_row list -> Obs.Json.t
val flatcomb : Experiments.flatcomb_row list -> Obs.Json.t
val example : Experiments.example_row list -> Obs.Json.t
val theory : Experiments.theory_row list -> Obs.Json.t
val theorem3 : Experiments.tau_row list -> Obs.Json.t
val lemma2 : Experiments.lemma2_row list -> Obs.Json.t
val ablation : Experiments.ablation_row list -> Obs.Json.t
val pthreaded : Experiments.pthread_row list -> Obs.Json.t
val multi : Experiments.multi_row list -> Obs.Json.t
val granularity : Experiments.granularity_row list -> Obs.Json.t

val micro : (string * float) list -> Obs.Json.t
(** Bechamel estimates: [(benchmark name, ns/run)]. *)

val results_file :
  quick:bool -> only:string option -> (string * string * Obs.Json.t) list -> Obs.Json.t
(** [(id, title, rows)] per experiment, in run order. *)

val write_file : path:string -> Obs.Json.t -> unit

val read_file : string -> (string * Obs.Json.t) list option
(** The top-level fields of the results file at the path; [None] when it
    is missing or not a JSON object. *)

val merge_experiments :
  path:string -> generated_by:string -> quick:bool -> Obs.Json.t list -> unit
(** Write experiment records into the results file at [path]: records
    of the file whose ids the new ones carry are replaced (the new ones
    go last, in the given order), every other field and record is kept.
    A missing file starts from the {!results_file} header with
    [generated_by], [quick] and a null [only]. *)
