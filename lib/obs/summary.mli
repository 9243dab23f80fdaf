(** Aggregated view of a recording: histograms and rates.

    Everything is computed from the surviving ring contents, so on a
    wrapped recording the totals undercount by exactly {!Recorder.dropped}
    events (reported in the summary). The interesting distributions:

    - batch size — how full LAUNCHBATCH's working set runs (cap is P);
    - op latency — BATCHIFY issue → batch completion, in clock units;
    - batches seen while pending — the empirical Lemma-2 distribution,
      at most 2 under the paper's scheduler (always on the runtime;
      only the simulator's ablations can exceed it);
    - steal success rate and per-status time. *)

module Histo : sig
  (** Power-of-two-bucket histogram over non-negative ints. *)
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int
  val total : t -> int
  val mean : t -> float
  val min_v : t -> int
  (** 0 when empty *)

  val max_v : t -> int

  val buckets : t -> (int * int * int) list
  (** Nonempty buckets as [(lo, hi, count)], [lo]..[hi] inclusive. *)

  val percentile : t -> float -> float
  (** [percentile t q] for [q] in [0,1] (clamped), by linear
      interpolation over the bucket holding the requested rank, the
      bucket's range clamped to the observed min/max — so
      [percentile t 0. = min_v t] and [percentile t 1. = max_v t]
      exactly. [0.] when empty. The histogram stores only
      power-of-two bucket counts, so interior percentiles are
      approximations with relative error bounded by the bucket width. *)

  val merge : t -> t -> t
  (** [merge x y] is a fresh histogram equal to one fed the union of
      both inputs' samples: bucket counts, [count] and [total] add;
      [min_v]/[max_v] are the extremes over both. Neither input is
      mutated. Exact because buckets are fixed ranges — this is how
      {!Health} aggregates its per-worker phase histograms at sample
      time without sharing writers. *)
end

type t = {
  clock : Recorder.clock;
  workers : int;
  events : int;  (** surviving events *)
  dropped : int;  (** lost to ring wraparound *)
  batches : int;
  batch_size : Histo.t;
  setup_total : int;
  ops : int;  (** completed operations *)
  op_latency : Histo.t;
  batches_seen : int array;  (** index k < 8 exact; index 8 = "8 or more" *)
  max_batches_seen : int;
  steal_attempts : int;
  steal_successes : int;
  status_time : int array;  (** clock units per status, indexed free..done *)
  work_units : int array;
      (** clock units spent per work class, indexed
          core, batch, setup, sched, wait (from [Work] events) *)
  violations : int array;
      (** surviving [Violation] events per check, indexed by
          {!Recorder.check_code} (inv1, inv2, inv3, lemma2, stall);
          all zeros on a healthy recording *)
}

val of_recorder : Recorder.t -> t

val steal_rate : t -> float
(** Successes / attempts; [0.] with no attempts. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** Machine-readable form of the same aggregates (used by the bench
    sink and [bin/schedview.exe --summary]). *)
