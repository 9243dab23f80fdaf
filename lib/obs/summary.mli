(** The read-out of a recording: one pass over {!Recorder.all_events}
    totals everything the sinks show — the worker-time buckets of the
    paper's Theorem-1 bound [O((T1 + W(n) + n·s(n))/P + m·s(n) + T∞)],
    per-status time, per-structure batch accounts, the batch-size,
    op-latency and Lemma-2 distributions, steal counts, and the
    realized critical-path witness. Online-checker violations are not
    events: {!Invariants} counts them.

    Everything is computed from the surviving ring contents, so a
    wrapped recording undercounts by exactly {!t.dropped} events;
    {!check} refuses such a recording.

    {b Buckets.} Every clock unit a worker was observed for lands in
    exactly one bucket:
    - [core] — [Wcore] work, the T1 term;
    - [batch] — [Wbatch] work (BOP execution), the W(n) term;
    - [setup] — [Wsetup] work (LAUNCHBATCH setup/cleanup), the n·s(n)
      term;
    - [wait] — [Wwait] work (the runtime's trapped BATCHIFY caller
      outside batch tasks) plus, on the [Timesteps] clock, one step per
      failed steal by a trapped (non-[Free]) worker: the realized
      surface of the serialized m·s(n) term;
    - [idle] — on the [Timesteps] clock, one step per failed steal by a
      [Free] worker: the span-limited T∞ term's surface (always 0 on
      the runtime);
    - [sched] — [Wsched] work: scheduler bookkeeping that executes no
      DAG unit (resume handoffs in the simulator; all between-task
      time in the runtime).

    A worker's {e observed span} [wa_first..wa_last] runs from the
    start of its first bucketed unit to the end of its last. On a
    lossless recording the buckets tile it: on the simulator each of
    the P workers performs one classifiable action per step, so the
    grand total is exactly [P × makespan]; on the runtime, class
    segments are emitted back to back from loop entry to exit. *)

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
end

type buckets = {
  core : int;
  batch : int;
  setup : int;
  sched : int;
  idle : int;
  wait : int;
}

val bucket_total : buckets -> int

type worker_account = {
  wa_worker : int;
  wa_first : int;  (** start of the worker's observed span *)
  wa_last : int;  (** end of the worker's observed span *)
  wa_buckets : buckets;
  wa_status : int array;
      (** clock units per status, indexed free, pending, executing,
          done. The status clock starts at [wa_first] in [Free] and
          ends at [wa_last], so the entries sum to
          [wa_last - wa_first]; a worker that emits no [Status] events
          (the runtime's) is [Free] throughout. *)
}

(** One structure's (one shard's) batches, from the [Batch_start] and
    [Batch_end] events. Invariant 1 — at most one batch of a structure
    in flight — makes in-order pairing of each sid's starts and ends on
    the time-merged stream exact; an end whose start was lost to ring
    wraparound counts in [sa_batches] but in no duration. *)
type structure_account = {
  sa_sid : int;
  sa_batches : int;  (** [Batch_end] events *)
  sa_ops : int;  (** Σ [Batch_start] sizes: ops collected into launches *)
  sa_setup : int;  (** Σ modeled setup/cleanup units (0 on the runtime) *)
  sa_busy : int;
      (** Σ paired batch durations: the structure's serialized
          occupancy, a realized dependency chain — the per-shard
          surface of the m·s(n/K) term *)
  sa_longest : int;  (** longest single paired batch *)
}

(** A realized critical-path segment: a paired batch (launcher's
    worker) or an op's issue→done latency (resuming worker). *)
type segment = {
  sg_kind : string;  (** ["batch"] or ["op"] *)
  sg_sid : int;
  sg_start : int;
  sg_len : int;
  sg_worker : int;
}

type t = {
  clock : Recorder.clock;
  workers : int;  (** 0 for a disabled recorder *)
  events : int;  (** surviving events *)
  dropped : int;  (** lost to ring wraparound *)
  per_worker : worker_account array;
  total : buckets;  (** Σ over workers *)
  status_time : int array;  (** Σ of [wa_status] over workers *)
  per_structure : structure_account array;
      (** sorted by [sa_sid]; only sids with a batch event appear *)
  batch_size : Histo.t;  (** [Batch_start] sizes *)
  op_latency : Histo.t;  (** [Op_done] latencies; its count is ops completed *)
  batches_seen : int array;
      (** [Op_done]s by batches launched while pending (the empirical
          Lemma-2 distribution): index k < 8 exact, index 8 = "8 or
          more"; at most 2 under the paper's scheduler *)
  max_batches_seen : int;
  steal_attempts : int;  (** [Steal] events plus suppressed counts *)
  steal_successes : int;
  t_inf_witness : int;
      (** max of every [sa_busy] and every op latency: each is a
          realized dependency chain, so the witness is a certified
          lower bound on the critical path and never exceeds the
          makespan *)
  top : segment list;  (** the 10 longest segments, descending *)
}

val of_recorder : Recorder.t -> t
(** Read out after the run. A disabled recorder yields the empty
    summary ([workers = 0]). *)

val steal_rate : t -> float
(** Successes / attempts; [0.] with no attempts. *)

val check : ?expected:int -> t -> (unit, string) result
(** Conservation: fails on dropped events, on any worker whose buckets
    do not sum exactly to its observed span, and — when [expected] is
    given (pass [P × makespan] on simulator recordings) — on a grand
    bucket total other than [expected]. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
