(** Always-on runtime liveness: heartbeats, stall detection, and
    per-structure gauges.

    Built for the real runtime ({!Clock} nanoseconds; the simulator has
    no need — its schedules are already fully auditable). Two signals:

    - {b Heartbeats} — each worker calls {!beat} once per scheduler-loop
      iteration (one clock read and one array store), and a task that
      holds its worker for a whole run, such as the service's
      dispatcher, beats for it; the sampler reports every worker's beat
      age, so a wedged domain is visible.
    - {b Stalls} — ops pending on a structure but no batch launched
      within {!stall_ns}: {!check_stalls}, which the {!Snapshot} sampler
      runs before each line, opens one stall {e episode} per offence,
      counted monotonically; the episode closes when a batch launches
      or the structure drains.

    Beside them each structure keeps its pending-op gauge and monotonic
    launch and op counts. Health keeps no per-op time: an op's pending
    (issue → launch) and exec (launch → completion) are {!Reqtrace}'s,
    and a run's latency digests are the service drivers'.

    The batch-path hooks are fed by {!Probe}, which stamps each event
    once: they take its raw {!Clock} stamp and read no clock
    themselves. The quiet path — monitoring enabled, nothing wrong —
    allocates nothing (pinned by a [Gc.minor_words] test) and is an
    atomic add or two per event. Everything is readable while the run
    is live; readers may see a sample a few events stale, never torn. *)

val stall_ns : int
(** 1 s: how long a structure may hold pending ops with no launch
    before {!check_stalls} opens a stall episode. *)

type t

val null : t
(** Disabled: [enabled null = false]; every hook is a no-op. *)

val create : workers:int -> structures:int -> unit -> t
(** Hooks with out-of-range [worker]/[sid] are ignored. *)

val enabled : t -> bool
val workers : t -> int
val structures : t -> int

(* ---- hot-path hooks (allocation-free) ---- *)

val beat : t -> worker:int -> unit
(** One heartbeat; the stored stamp is refreshed every 8th call (the
    clock read dominates the hook), so reported beat ages can lag by up
    to 8 scheduler-loop iterations. *)

val op_issued : t -> sid:int -> now:int -> unit
(** An op parked on [sid] at raw stamp [now]; starts the structure's
    pending window when it was empty. *)

val batch_collected : t -> sid:int -> size:int -> now:int -> unit
(** A launch at raw stamp [now] collected [size] ops from [sid]; feeds
    stall detection (closes any stall episode) and the pending gauge. *)

val op_done : t -> sid:int -> unit
(** An op on [sid] completed: one count. *)

(* ---- sampler side ---- *)

val check_stalls : ?now:int -> t -> unit
(** Scan structures for pending-but-unlaunched past {!stall_ns};
    called by {!Snapshot.sample} before each line, so
    a stall is seen within [stall_ns] plus the sampler's interval.
    [now] defaults to {!Clock.now_ns}. *)

val stall_count : t -> int

val heartbeat_age_ns : t -> worker:int -> now:int -> int
(** [-1] before the worker's first beat. *)

val to_json : ?now:int -> t -> Json.t
(** The ["health"] object carried on snapshot lines: the stall
    threshold and total, per-worker beat ages, and per structure its
    ["pending"] gauge, ["launches"] and ["ops"] counts and ["stalled"]
    flag. [Json.Null] when disabled. *)
