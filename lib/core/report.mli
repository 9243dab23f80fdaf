(** Plain-text rendering of experiment results, one printer per
    experiment; [repro.exe] prints through these so the output matches
    the rows/series the paper reports. *)

val fig5 : Format.formatter -> Experiments.fig5_row list -> unit
val fig5_rt_header : Format.formatter -> records:int -> unit

val fig5_rt_row : Format.formatter -> Experiments.fig5_rt_row -> unit
(** One row per cell, so a caller can print each as it finishes. *)

val shard_scaling : Format.formatter -> Experiments.shard_row list -> unit
(** Speedups are against the first row, K = 1. *)

val flatcomb : Format.formatter -> Experiments.flatcomb_row list -> unit
val example : name:string -> Format.formatter -> Experiments.example_row list -> unit
val theory : Format.formatter -> Experiments.theory_row list -> unit
val theorem3 : Format.formatter -> Experiments.tau_row list -> unit
val lemma2 : Format.formatter -> Experiments.lemma2_row list -> unit
val ablation : name:string -> Format.formatter -> Experiments.ablation_row list -> unit
val pthreaded : Format.formatter -> Experiments.pthread_row list -> unit
val multi : Format.formatter -> Experiments.multi_row list -> unit
val granularity : Format.formatter -> Experiments.granularity_row list -> unit
