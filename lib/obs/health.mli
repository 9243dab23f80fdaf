(** Always-on runtime health: heartbeats, a stall watchdog, and
    per-structure phase-latency SLOs.

    Built for the real runtime ({!Clock} nanoseconds; the simulator has
    no need — its schedules are already fully auditable). Three signals:

    - {b Heartbeats} — each worker calls {!beat} once per scheduler-loop
      iteration (one clock read and one array store); the sampler
      reports every worker's beat age, so a wedged domain is visible.
    - {b Stall watchdog} — ops pending on a structure but no batch
      launched within [stall_ns]: {!check_stalls} (run from a dedicated
      {!watchdog_start} tick domain, or piggybacked on the {!Snapshot}
      sampler thread) opens one stall {e episode} per
      offence, counted monotonically and folded into the attached
      {!Invariants} counters; the episode closes when a batch launches
      or the structure drains.
    - {b Phase latency} — each completed op's time is decomposed into
      pending (issue → its batch's launch) and exec (launch → batch
      completion), {!Reqtrace}'s names for the same two phases. Per worker × structure × phase power-of-two
      histograms, each written only by its worker — the op's own
      (single-writer, allocation-free) — and
      merged with {!Summary.Histo.merge} at sample time; each phase has
      an SLO threshold whose breaches bump a burn counter.

    The batch-path hooks are fed by {!Probe}, which stamps each event
    once: they take its raw {!Clock} stamp and read no clock
    themselves. The quiet path — monitoring enabled, nothing wrong —
    allocates nothing (pinned by a [Gc.minor_words] test) and is a
    handful of atomic adds per op. Everything is readable while the run
    is live; readers may see a sample a few events stale, never torn. *)

(** Per-phase SLO thresholds in nanoseconds. *)
type slo = { pending_ns : int; exec_ns : int }

val default_slo : slo
(** 100 ms per phase — loose enough not to burn on a loaded CI box;
    production callers pass their own. *)

type phase = Pending | Exec
(** {!Summary}'s [wait] bucket is another quantity: worker time trapped
    in BATCHIFY, not an op's time before its batch launched. *)

type t

val null : t
(** Disabled: [enabled null = false]; every hook is a no-op. *)

val create :
  ?slo:slo ->
  ?stall_ns:int ->
  ?invariants:Invariants.t ->
  workers:int ->
  structures:int ->
  unit ->
  t
(** [stall_ns] defaults to 1 s. [invariants] (default {!Invariants.null})
    receives {!Invariants.note_stall} for each watchdog episode, and
    its counters ride on {!to_json}; attach the same instance to the
    {!Probe} for the op/batch checks. Hooks with out-of-range
    [worker]/[sid] are ignored. *)

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
    the watchdog (closes any stall episode) and the pending gauge. *)

val op_phases :
  t -> worker:int -> sid:int -> pending:int -> exec:int -> unit
(** Phase decomposition of one completed op, in ns, recorded by the
    op's own worker once the op is done; [worker]'s histograms must
    have no other writer. *)

(* ---- sampler side ---- *)

val check_stalls : ?now:int -> t -> unit
(** Scan structures for pending-but-unlaunched past [stall_ns]; called
    by {!Snapshot.sample} when a health instance is attached. [now]
    defaults to {!Clock.now_ns}. *)

val stall_count : t -> int

type watchdog

val watchdog_start : ?tick_s:float -> t -> watchdog
(** Spawn a dedicated domain that runs {!check_stalls} every [tick_s]
    seconds (default 10 ms). Without it, stall detection latency is
    [stall_ns] + the {!Snapshot} sampler interval (often 100 ms–1 s);
    with it the bound tightens to [stall_ns + tick_s] + scheduling
    noise. The domain sleeps between ticks, so a fine tick costs
    wakeups, not CPU. Inert (no domain) when [t] is disabled or
    [tick_s <= 0]. *)

val watchdog_stop : watchdog -> unit
(** Signal the tick domain to exit and join it. Idempotent. *)

val heartbeat_age_ns : t -> worker:int -> now:int -> int
(** [-1] before the worker's first beat. *)

val phase_histo : t -> sid:int -> phase -> Summary.Histo.t
(** Fresh merge of every worker's histogram for [sid]×[phase]. *)

val burn_count : t -> sid:int -> phase -> int

val to_json : ?now:int -> t -> Json.t
(** The ["health"] object carried on snapshot lines: per-worker beat
    ages, per-structure gauges + merged phase stats + burn counters,
    the stall total, and the attached invariants' counters. A
    structure's ["pending"] is its pending-op gauge; its two phase
    objects sit under ["phases"]. [Json.Null] when disabled. *)
