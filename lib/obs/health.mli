(** Always-on runtime health: heartbeats, stall detection, and
    per-structure phase-latency SLOs.

    Built for the real runtime ({!Clock} nanoseconds; the simulator has
    no need — its schedules are already fully auditable). Three signals:

    - {b Heartbeats} — each worker calls {!beat} once per scheduler-loop
      iteration (one clock read and one array store); the sampler
      reports every worker's beat age, so a wedged domain is visible.
    - {b Stalls} — ops pending on a structure but no batch launched
      within {!stall_ns}: {!check_stalls}, which the {!Snapshot} sampler
      runs before each line, opens one stall {e episode} per offence,
      counted monotonically; the episode closes when a batch launches
      or the structure drains.
    - {b Phase latency} — each completed op's time is decomposed into
      pending (issue → its batch's launch) and exec (launch → batch
      completion), {!Reqtrace}'s names for the same two phases. Per worker × structure × phase power-of-two
      histograms, each written only by its worker — the op's own
      (single-writer, allocation-free) — and
      merged with {!Summary.Histo.merge} at sample time; a phase longer
      than {!slo_ns} bumps that phase's burn counter.

    The batch-path hooks are fed by {!Probe}, which stamps each event
    once: they take its raw {!Clock} stamp and read no clock
    themselves. The quiet path — monitoring enabled, nothing wrong —
    allocates nothing (pinned by a [Gc.minor_words] test) and is a
    handful of atomic adds per op. Everything is readable while the run
    is live; readers may see a sample a few events stale, never torn. *)

val slo_ns : int
(** 100 ms, the SLO of each phase — loose enough not to burn on a
    loaded CI box. *)

val stall_ns : int
(** 1 s: how long a structure may hold pending ops with no launch
    before {!check_stalls} opens a stall episode. *)

type phase = Pending | Exec
(** {!Summary}'s [wait] bucket is another quantity: worker time trapped
    in BATCHIFY, not an op's time before its batch launched. *)

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

val op_phases :
  t -> worker:int -> sid:int -> pending:int -> exec:int -> unit
(** Phase decomposition of one completed op, in ns, recorded by the
    op's own worker once the op is done; [worker]'s histograms must
    have no other writer. *)

(* ---- sampler side ---- *)

val check_stalls : ?now:int -> t -> unit
(** Scan structures for pending-but-unlaunched past {!stall_ns};
    called by {!Snapshot.sample} when a health instance is attached, so
    a stall is seen within [stall_ns] plus the sampler's interval.
    [now] defaults to {!Clock.now_ns}. *)

val stall_count : t -> int

val heartbeat_age_ns : t -> worker:int -> now:int -> int
(** [-1] before the worker's first beat. *)

val phase_histo : t -> sid:int -> phase -> Summary.Histo.t
(** Fresh merge of every worker's histogram for [sid]×[phase]. *)

val burn_count : t -> sid:int -> phase -> int

val to_json : ?now:int -> t -> Json.t
(** The ["health"] object carried on snapshot lines: per-worker beat
    ages, per-structure gauges + merged phase stats + burn counters,
    and the stall total. A
    structure's ["pending"] is its pending-op gauge; its two phase
    objects sit under ["phases"]. [Json.Null] when disabled. *)
