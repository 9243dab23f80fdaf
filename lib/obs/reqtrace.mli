(** Request-scoped span tracing: the per-request anatomy behind the
    aggregate latency digests.

    One instance covers one open-loop run. Every request carries a
    compact token (its index in the run's schedule, [0 .. capacity)),
    and each lifecycle hook writes one or two plain-int slots of
    preallocated flat arrays indexed by that token — no allocation, no
    synchronization (each milestone has exactly one writer per
    request). A request's whole life is captured:

    release → serve-task start → submit (BATCHIFY) → batch launch →
    BOP execution → completion

    and decomposes into an {e exact} phase sum (see {!span}):

    [latency = queue + sched_pre + pending + exec + sched_post]

    where [pending]/[exec] are deltas between the batch path's own
    stamps ({!Probe}), the milestones are raw monotonic ns (the submit
    milestone is the probe's issue stamp itself), and [sched_post] is
    the residual (batch completion → continuation resumed). Stamp
    ordering makes every term nonnegative; {!check} enforces both
    properties over a completed run.

    The arrays are the one store. Every read-out scans them after the
    run: {!slowest} picks the worst requests of a class from every
    completed span, exactly, and materializes each anatomy whole. A
    timeline ({!exported}, which {!Chrome.requests} renders) is thinned
    to every 32nd token, {!span.sampled}, plus each class's 16 slowest,
    so it keeps the tail. *)

type t

val null : t
(** Disabled: every hook returns after one field load. *)

val create : classes:int -> capacity:int -> unit -> t
(** [capacity] tokens ([0 .. capacity)); hooks on tokens outside the
    range (including the untraced sentinel [-1]) are no-ops.
    [classes >= 1]. *)

val enabled : t -> bool
val capacity : t -> int
val classes : t -> int

(* ---- lifecycle hooks (allocation-free; scalar arguments only) ---- *)

val on_release : t -> token:int -> arrive_ns:int -> unit
(** The dispatcher released the request. [arrive_ns] is the {e
    scheduled} arrival on the raw monotonic-ns basis ([t0 +] the
    request's entry in [Gen.requests.arrive_ns]); latency and
    queue-wait are measured from it. *)

val on_start : t -> token:int -> cls:int -> worker:int -> unit
(** The serve task began running on [worker]. *)

val on_submit : t -> token:int -> sid:int -> now:int -> unit
(** BATCHIFY entered for the request's (representative) operation on
    structure [sid] at raw stamp [now] — the op's issue stamp, which
    [pending] is measured from. *)

val on_batch :
  t -> token:int -> pending:int -> exec:int -> seen:int -> worker:int -> unit
(** The op's worker resumed after its batch completed. [pending]/[exec]
    are durations between the batch path's stamps (issue → launch,
    launch → done); [seen] is the op's batches-while-pending (the
    Lemma-2 figure); [worker] ran the batch. For fan-out requests only
    the representative sub-op carries the token, so one consistent
    chain is recorded and the cross-shard join lands in
    [sched_post]. *)

val on_done : t -> token:int -> worker:int -> unit
(** The request's continuation resumed on [worker] and its latency is
    final: stamp completion. *)

val record_sim : t ->
  token:int -> cls:int -> sid:int -> arrive_ns:int ->
  pending_ns:int -> exec_ns:int -> seen:int -> unit
(** Bulk entry for the virtual-clock driver: one call captures a whole
    sim request (queue/sched phases are zero on the virtual clock —
    the engine admits at arrival and resumes at batch completion).
    Deterministic: touches no wall clock. *)

(* ---- read-out (after the run) ---- *)

type span = {
  token : int;
  cls : int;
  sid : int;
  sampled : bool;
  arrive_ns : int;  (** scheduled arrival, raw basis *)
  latency_ns : int;  (** completion − scheduled arrival *)
  queue_ns : int;  (** arrival → serve-task start *)
  sched_pre_ns : int;  (** serve-task start → BATCHIFY *)
  pending_ns : int;  (** BATCHIFY → batch launch (the Lemma-2 window) *)
  exec_ns : int;  (** batch launch → batch completion *)
  sched_post_ns : int;  (** batch completion → continuation resumed;
                            includes the cross-shard join of fan-outs *)
  batches_seen : int;  (** batches launched while pending (Lemma 2) *)
  w_start : int;  (** worker that ran the serve task *)
  w_batch : int;  (** worker that stamped the batch *)
  w_done : int;  (** worker that resumed the continuation *)
}

val phase_names : string list
(** ["queue"; "sched"; "pending"; "exec"] — the disjoint phases whose
    shares sum to 1 ([sched] = pre + post). *)

val span : t -> int -> span option
(** The materialized span of a completed token; [None] for tokens
    never completed (or out of range). *)

val completed : t -> int
(** Completed spans: a scan of the done marks, for after the run. *)

val slowest : ?cls:int -> n:int -> t -> span list
(** The [n] slowest completed spans ([cls] restricts to one class;
    default: all classes), worst first, equal latencies highest token
    first. The [max n 16] slowest are chosen first, a tie at the cut
    keeping the lower token, so a list of at most 16 is a prefix of
    [slowest ~n:16]. *)

val exported : t -> span list
(** A timeline's spans: every {!span.sampled} span plus every class's
    [slowest ~n:16], each once, in token order. *)

type totals = {
  n : int;  (** completed requests in the aggregate *)
  t_latency : int;
  t_queue : int;
  t_sched : int;
  t_pending : int;
  t_exec : int;
}

val totals : ?cls:int -> t -> totals
(** Phase sums over every completed request (of one class when [cls]
    is given): the load-sweep attribution input.
    [t_queue + t_sched + t_pending + t_exec = t_latency] exactly. *)

val shares : totals -> (string * float) list
(** [(phase, share-of-total-latency)] in {!phase_names} order; all
    zeros when [t_latency = 0]. The four shares sum to 1. *)

val check : t -> (unit, string) result
(** Conservation over every completed span: the four phases (plus
    residual) sum exactly to the measured latency and every phase is
    nonnegative. [Error] pinpoints the first offending token. *)
