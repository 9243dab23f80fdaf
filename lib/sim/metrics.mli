(** Measurements produced by a simulation run. *)

type t = {
  p : int;  (** workers *)
  makespan : int;  (** timesteps until the core DAG's sink completed *)
  core_work : int;  (** core-node cost units executed *)
  batch_work : int;  (** BOP cost units executed (excludes setup) *)
  setup_work : int;  (** LAUNCHBATCH setup+cleanup units executed *)
  batches : int;  (** number of batches launched *)
  batch_size_total : int;  (** sum of data-structure nodes over batches *)
  max_batch_size : int;
  steal_attempts : int;  (** all steal attempts, successful or not *)
  steal_successes : int;
  free_steal_attempts : int;  (** attempts by workers with free status *)
  trapped_steal_attempts : int;  (** attempts by trapped workers *)
  max_batches_while_pending : int;
      (** max number of batch launches observed between an operation
          becoming pending and completing — Lemma 2 says <= 2 *)
  span_realized : int;
      (** measured T∞: the longest executed dependency chain (in work
          units, clamped by elapsed steps) through the core DAG and the
          batch dags it coupled to, so [span_realized <= makespan]. Only
          the Batcher scheduler computes it; 0 elsewhere. *)
  total_records : int;  (** data-structure records processed *)
  batch_details : batch_detail list;
      (** one entry per launched batch, most recent first — the raw
          material for the Theorem-3 (τ-trimmed span) analysis *)
}

and batch_detail = {
  bd_sid : int;  (** structure (shard) the batch belongs to *)
  bd_size : int;  (** data-structure nodes in the batch *)
  bd_work : int;  (** BOP work w_A (setup/cleanup excluded, as in §2) *)
  bd_span : int;  (** BOP span s_A *)
}

val trimmed_span : tau:int -> t -> int
(** Σ s_A over the τ-long batches (s_A > τ) — the run's contribution to
    S_τ(n) in Definition 1. *)

val count_long : tau:int -> t -> int

val zero : p:int -> t

val throughput : t -> float
(** Records completed per timestep. *)

val speedup : baseline:t -> t -> float
(** [baseline.makespan / t.makespan]. *)
