(** Exact time attribution: fold a recording into the cost buckets of
    the paper's Theorem-1 bound
    [O((T1 + W(n) + n·s(n))/P + m·s(n) + T∞)].

    Every clock unit a worker was observed for lands in exactly one
    bucket, so on a lossless recording the buckets are a partition of
    worker time: on the simulator's [Timesteps] clock the grand total is
    {e exactly} [P × makespan] (each of the P workers performs exactly
    one classifiable action per timestep); on the runtime's
    [Nanoseconds] clock each worker's buckets tile its observed span
    (loop entry to exit) with no gap, up to clock resolution. {!check}
    enforces both, and is wired into the schedule fuzzer and CI.

    Bucket meaning, by bound term:
    - [core] — core-program work, the T1 term;
    - [batch] — BOP execution, the W(n) term;
    - [setup] — LAUNCHBATCH setup/cleanup, the n·s(n) term;
    - [wait] — time trapped workers spent outside batch work while a
      batch they depend on runs (or waits to launch): the realized
      surface of the serialized m·s(n) term. On the simulator, the
      trapped workers' failed steals; on the runtime, the [Wwait]
      segments of a worker trapped in BATCHIFY (its helped batch tasks
      and its own launches are [batch]/[setup]);
    - [idle] — timesteps free workers spent failing to steal: the
      span-limited T∞ term's surface;
    - [sched] — scheduler bookkeeping that executes no DAG unit: resume
      handoffs in the simulator; all between-task time (deque polls,
      steals, backoff) in the runtime. *)

type buckets = {
  core : int;
  batch : int;
  setup : int;
  sched : int;
  idle : int;
  wait : int;
}

val zero_buckets : buckets
val bucket_total : buckets -> int
val add_buckets : buckets -> buckets -> buckets

type worker_account = {
  wa_worker : int;
  wa_buckets : buckets;
  wa_covered : int;  (** clock units attributed (= bucket sum) *)
  wa_first : int;  (** start of the worker's observed span *)
  wa_last : int;  (** end of the worker's observed span *)
}

(** Per-structure (per-shard, under {!Batched.Shard}-style sharding)
    batch accounting, derived from the [Batch_start]/[Batch_end]
    events of the same recording the worker buckets come from. *)
type structure_account = {
  sa_sid : int;
  sa_batches : int;  (** completed batches ([Batch_end] count) *)
  sa_ops : int;  (** ops collected into launches (Σ [Batch_start] size) *)
  sa_setup : int;  (** Σ modeled setup/cleanup units (0 on the runtime) *)
  sa_busy : int;
      (** Σ (end − launch) clock units the structure had a batch in
          flight — its serialized occupancy, the per-shard surface of
          the m·s(n/K) term. Invariant 1 makes the in-order pairing of
          each sid's starts and ends exact. *)
}

type t = {
  clock : Recorder.clock;
  p : int;
  per_worker : worker_account array;
  per_structure : structure_account array;
      (** sorted by [sa_sid]; only sids that launched appear *)
  total : buckets;
  dropped : int;  (** ring-wraparound losses; nonzero voids {!check} *)
}

val of_recorder : Recorder.t -> t
(** Read out after the run. A disabled recorder yields the empty
    account ([p = 0]). *)

val total_covered : t -> int

val per_structure : Recorder.t -> structure_account array
(** The [per_structure] field computed directly from a recorder,
    without the worker-bucket fold. Sorted by [sa_sid]; only sids that
    launched at least once appear. Batches whose launch event was lost
    to ring wraparound count in [sa_batches] but contribute no
    [sa_busy]. Empty when disabled. *)

val check : ?expected:int -> ?slack:int -> t -> (unit, string) result
(** Conservation: fails on dropped events, on any worker whose bucket
    sum differs from its covered units, on any worker whose covered
    units differ from its observed span by more than [slack] (default
    0), and — when [expected] is given (pass [P × makespan] on
    simulator recordings) — on a grand total off by more than
    [slack]. *)

val pp : Format.formatter -> t -> unit

val buckets_json : buckets -> Json.t
val to_json : t -> Json.t
