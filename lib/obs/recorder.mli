(** Low-overhead per-worker event recorder.

    One preallocated ring buffer of flat integer slots per worker; a
    single writer per ring (each worker emits only its own events), so
    the hot path is five [int array] stores and an index bump — no
    allocation, no synchronization. When the ring fills, the oldest
    events are overwritten and counted in {!dropped}. The {!null}
    recorder is disabled: every [emit_*] returns after one field load,
    allocating nothing, so instrumented code can keep its hooks
    unconditionally.

    The same event vocabulary describes both substrates. The simulator
    stamps events with its discrete timestep counter
    ([clock = Timesteps]); the real runtime stamps them with monotonic
    nanoseconds relative to the recorder's creation
    ([clock = Nanoseconds], see {!now}). Sinks ({!Chrome}, {!Summary})
    read the clock kind from the recording. The op-lifecycle events
    (op issue, batch start and end, op done) reach a recorder through
    {!Probe}; status, steal and work events are emitted directly. *)

type clock = Timesteps | Nanoseconds

(** The paper's worker-status machine (Section 4 / Figure 3). *)
type status = Free | Pending | Executing | Done

(** What a worker's time was spent {e doing}, bucketed by the terms of
    the paper's Theorem-1 bound: core-program work (the [T1] term),
    batch operation work (the [W(n)] term), LAUNCHBATCH setup/cleanup
    (the [n·s(n)] term), scheduler bookkeeping that executes no DAG
    unit (resume handoffs in the simulator; steal/backoff/idle time in
    the real runtime), and — runtime only — time a worker trapped in
    BATCHIFY spends waiting for its operation's batch outside batch
    tasks (the simulator records that as failed trapped steals). See
    {!Summary}. *)
type work_class = Wcore | Wbatch | Wsetup | Wsched | Wwait

type kind =
  | Status of status  (** worker status transition *)
  | Steal of { victim : int; success : bool; batch_deque : bool }
      (** one steal attempt; [victim = -1] when no victim was available.
          The runtime records hits only (see [Steals_suppressed]). *)
  | Batch_start of { sid : int; size : int; setup : int }
      (** LAUNCHBATCH by this worker: structure, working-set size, and
          modeled setup/cleanup work ([0] when unknown, as in the real
          runtime) *)
  | Batch_end of { sid : int; size : int }
  | Op_issue of { sid : int }  (** a data-structure op parked (BATCHIFY) *)
  | Op_done of { sid : int; batches_seen : int; latency : int }
      (** the op's worker resumed: latency in clock units since issue
          (to its batch's completion on the runtime, to the resume on
          the simulator), and how many batches of its structure were
          launched while it was pending (Lemma 2 bounds this by 2 under
          the paper's scheduler) *)
  | Steals_suppressed of { count : int }
      (** [count] failed steal attempts made by this runtime worker, not
          individually recorded; flushed before its next successful
          steal and when it leaves its scheduling loop, so attempt
          totals stay exact while a run's event count grows with its
          work, not its idle time. The simulator records each attempt
          as a [Steal] event instead. *)
  | Work of { cls : work_class; units : int }
      (** a contiguous run of [units] clock units this worker spent in
          one work class, ending at the event's time. Emitters flush a
          run when the class changes (and at shutdown), so per-worker
          [Work] segments tile the worker's busy timeline without
          overlap — the invariant {!Summary.check}'s conservation rests
          on *)

type event = { worker : int; time : int; kind : kind }

type t

val null : t
(** The disabled recorder: [enabled null = false], all emitters no-ops. *)

val create : ?capacity:int -> clock:clock -> workers:int -> unit -> t
(** [capacity] is per worker, rounded up to a power of two (default
    [65536] events ≈ 2.5 MB per worker). For [Nanoseconds] the epoch is
    the creation instant. *)

val enabled : t -> bool
val clock : t -> clock
val workers : t -> int

val now : t -> int
(** Nanoseconds since the recorder was created ([Nanoseconds] clock
    only; raises [Invalid_argument] on a [Timesteps] recorder — the
    simulator supplies its own times). *)

val epoch : t -> int
(** The raw {!Clock} reading event times are relative to: the creation
    instant on a [Nanoseconds] recorder, [0] on a [Timesteps] one (and
    on {!null}). [time - epoch t] puts a raw stamp on the recorder's
    basis. *)

val clock_name : clock -> string
(** ["steps"] or ["ns"]: the unit JSON sinks print. *)

val status_name : status -> string
(** ["free"], ["pending"], ["executing"] or ["done"]. *)

val work_class_name : work_class -> string
(** ["core"], ["batch"], ["setup"], ["sched"] or ["wait"]. *)

(* ---- hot-path emitters (scalar arguments only; no allocation) ---- *)

val emit_status : t -> worker:int -> time:int -> status -> unit
val emit_steal :
  t -> worker:int -> time:int -> victim:int -> success:bool -> batch_deque:bool -> unit
val emit_batch_start :
  t -> worker:int -> time:int -> sid:int -> size:int -> setup:int -> unit

val emit_batch_end : t -> worker:int -> time:int -> sid:int -> size:int -> unit
val emit_op_issue : t -> worker:int -> time:int -> sid:int -> unit
val emit_op_done :
  t -> worker:int -> time:int -> sid:int -> batches_seen:int -> latency:int -> unit
val emit_steals_suppressed : t -> worker:int -> time:int -> count:int -> unit
val emit_work :
  t -> worker:int -> time:int -> cls:work_class -> units:int -> unit

(* ---- read-out (after the run; not concurrency-safe during one) ---- *)

val length : t -> worker:int -> int
(** Events currently held for the worker (≤ capacity). *)

val dropped : t -> worker:int -> int
(** Events overwritten by ring wraparound for the worker. *)

val total_dropped : t -> int

val events_of_worker : t -> int -> event list
(** Chronological (oldest surviving first). *)

val all_events : t -> event list
(** All workers merged, sorted by time (stable within a worker). *)
