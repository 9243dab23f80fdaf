(** One lifecycle probe: the single attach point of every observer of
    the batch path, on both executions.

    Each data-structure operation has one lifecycle: BATCHIFY parks its
    record ({!submit}), LAUNCHBATCH collects it ({!launch}), the BOP
    completes its batch ({!finish}), and its worker resumes
    ({!complete}). A probe holds the four subscribers — {!Recorder},
    {!Invariants}, {!Health} and {!Reqtrace} — and turns each event into
    the calls each of them needs, so the batch path makes one hook call
    per event whatever is attached. [Runtime.Pool.create] and
    [Sim.Batcher.run] take one.

    Every hook takes the event's stamp [time]: the runtime stamps with
    {!now}, the simulator passes its timestep. Health and Reqtrace take
    the stamp as is, so they attach to the runtime only (the simulator
    rejects them); the recorder's events get it shifted to the
    recorder's epoch ({!Recorder.epoch}). The invariant checkers take
    no stamp: a violation is a count, not an event.

    {!null} is off: each hook returns after one branch. Hooks take
    scalar arguments only and allocate nothing, whatever is attached
    (pinned by a [Gc.minor_words] test). *)

type t

val null : t

val create :
  ?recorder:Recorder.t ->
  ?invariants:Invariants.t ->
  ?health:Health.t ->
  ?reqtrace:Reqtrace.t ->
  unit ->
  t
(** Each subscriber defaults to its own [null]. The clock kind and the
    worker coverage are checked where the probe is attached. *)

val on : t -> bool
(** Whether any subscriber is enabled. *)

val recorder : t -> Recorder.t
(** For the events outside the lifecycle: status, steal and work. *)

val health : t -> Health.t
val reqtrace : t -> Reqtrace.t

val now : t -> int
(** The monotonic clock in raw ns when the probe is on, [0] otherwise. *)

val beat : t -> worker:int -> unit
(** One scheduler-loop heartbeat of [worker] ({!Health.beat}). *)

val submit : t -> time:int -> worker:int -> sid:int -> token:int -> unit
(** BATCHIFY parked [worker]'s op on structure [sid]. [token] keys the
    op in the request trace ([-1]: untraced). *)

val launch :
  t ->
  time:int ->
  worker:int ->
  sid:int ->
  size:int ->
  setup:int ->
  cap:int ->
  unit
(** LAUNCHBATCH by [worker] collected [size] ops of [sid]; [cap] is the
    substrate's batch cap (Invariant 2) and [setup] the modeled
    setup/cleanup work ([0] on the runtime). *)

val finish : t -> time:int -> worker:int -> sid:int -> size:int -> unit
(** The BOP of [sid]'s batch in flight, of [size] ops, finished on
    [worker]. *)

val complete :
  t ->
  time:int ->
  worker:int ->
  sid:int ->
  token:int ->
  issue:int ->
  launch:int ->
  finish:int ->
  seen:int ->
  batch_worker:int ->
  unit
(** [worker]'s op on [sid] resumed. [issue], [launch] and [finish] are
    the stamps of its {!submit}, its batch's {!launch} and that batch's
    {!finish}; [seen] counts the launches of [sid] while it was pending
    (the Lemma-2 figure) and [batch_worker] ran its batch. The op's
    pending (issue → launch) and exec (launch → finish) go to Reqtrace,
    Health counts the op, and the recorder gets an [Op_done] of latency
    [finish - issue]. The simulator passes its resume step as
    [launch] and [finish], so its latency runs from issue to resume
    (DESIGN.md §7); it rejects Reqtrace, the reader of pending and
    exec. *)
