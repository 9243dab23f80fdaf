(** Online checkers for the paper's safety properties.

    The post-mortem sinks ({!Summary}, {!Chrome}, [Sim.Trace]) can only
    audit a bounded recording after the fact; this module watches the
    invariants {e while} the ops flow. It keeps O(#structures) atomic
    counters and checks, at the moments the scheduler acts:

    - {b Invariant 1} — at most one batch of a structure in flight: a
      per-structure in-flight counter must step 0 → 1 at every
      {!batch_started} and 1 → 0 at every {!batch_ended}.
    - {b Invariant 2} — a batch's working set never exceeds its cap
      (P in the paper; the configured cap of the running substrate):
      checked against [size] at {!batch_started}.
    - {b Invariant 3} — dual-deque discipline: every op a batch collects
      was submitted exactly once and is still pending. Checked as a
      per-structure pending balance: {!op_submitted} adds one,
      {!batch_started} subtracts [size]; a negative balance means an op
      was collected twice or fabricated.
    - {b Lemma 2} — at most [lemma2_bound] batches of the structure
      launch while one op is pending (2 under the paper's scheduler,
      which the runtime's trapped BATCHIFY always implements; only the
      simulator's ablations — [batch_cap], [launch_threshold],
      sequential batches — can exceed it). Checked at
      {!op_completed}.

    A violation bumps a monotonic per-check counter (readable at any
    time from any thread) and, when a recorder is attached, emits a
    {!Recorder.kind.Violation} event on the calling worker's ring.

    {!create} runs every check on every event; {!null} is off, and
    each of its hooks returns after one field load. Hooks are
    allocation-free either way (pinned by a [Gc.minor_words] test). *)

type t

val null : t
(** Disabled: [active null = false]; all hooks are no-ops. *)

val create :
  ?lemma2_bound:int ->
  ?recorder:Recorder.t ->
  structures:int ->
  unit ->
  t
(** [lemma2_bound] defaults to the paper's 2. [structures] sizes the
    per-structure counter tables — hooks for a [sid] outside
    [0..structures-1] are ignored (checked, not trusted). *)

val active : t -> bool

(* ---- hot-path hooks (allocation-free; called by workers) ---- *)

val op_submitted : t -> sid:int -> unit
(** An op parked on structure [sid] (BATCHIFY). *)

val batch_started : t -> worker:int -> time:int -> sid:int -> size:int -> cap:int -> unit
(** A batch of [size] ops launched on [sid] by [worker]; runs the
    Invariant 1/2/3 checks. [time] is only used to stamp violation
    events (pass the recorder-consistent clock, or 0 with no recorder). *)

val batch_ended : t -> worker:int -> time:int -> sid:int -> unit
(** The in-flight batch on [sid] finished. An end with no matching
    start also fires Invariant 1. *)

val op_completed :
  t -> worker:int -> time:int -> sid:int -> batches_seen:int -> unit
(** An op resumed after its batch; checks [batches_seen ≤ lemma2_bound]. *)

(* ---- read-out (any thread, any time) ---- *)

val violations : t -> int array
(** Violations so far per check, indexed by {!Recorder.check_code};
    all zeros from {!null}. *)

val total_violations : t -> int

val checks_run : t -> int
(** Check {e sites} executed (batch starts plus op completions) —
    evidence the checkers actually ran. *)

val pending : t -> sid:int -> int
(** Current pending balance for [sid] (submitted − collected); for
    tests. [0] when disabled or out of range. *)

val to_json : t -> Json.t
(** [{"checks":N,"violations":{"inv1":0,...,"lemma2":0}}], or
    [Json.Null] when disabled. *)
