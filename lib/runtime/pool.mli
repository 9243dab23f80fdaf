(** Fork-join work-stealing pool on OCaml 5 domains with effect-handler
    task suspension — the substrate the real BATCHER runtime extends.

    The pool owns [num_workers - 1] spawned domains; the domain calling
    {!run} becomes worker 0 for the duration of the call. Each worker
    owns two Chase-Lev deques, as in the paper's scheduler: a {e core}
    deque for the program's tasks and a {e batch} deque for tasks
    spawned inside a batched operation (BOP). A core task blocked in
    {!await} suspends its continuation instead of blocking the worker.
    Batch work never suspends: in batch context {!async} pushes onto the
    batch deque and {!await} helps with batch work until the promise is
    done. {!Batcher_rt.batchify} relies on that: its caller stays on its
    worker, trapped, and runs only batch work until its operation
    completes — it does not suspend. Free workers alternate their steal
    attempts between core and batch deques. *)

type t

type backoff = {
  spin_limit : int;  (** misses served by a single [Domain.cpu_relax] *)
  spin_burst : int;  (** relax iterations per miss while bursting *)
  burst_limit : int;  (** misses before the worker starts sleeping *)
  sleep_min : float;  (** first sleep, seconds *)
  sleep_max : float;  (** cap of the exponential sleep ramp, seconds *)
  steal_tries : int;  (** steal attempts per round; 0 means 2 x workers *)
}
(** Idle-worker policy. A worker that finds no task counts consecutive
    "misses": below [spin_limit] it relaxes once per miss; below
    [burst_limit] it relaxes [spin_burst] times per miss; past that it
    sleeps [sleep_min * 2^k] capped at [sleep_max]. Exposed so
    [lib/check]'s config ablations can sweep the thresholds. *)

val default_backoff : backoff

val create :
  ?probe:Obs.Probe.t -> ?backoff:backoff -> num_workers:int -> unit -> t
(** Spawns [num_workers - 1] domains. [num_workers >= 1].

    [probe] (default {!Obs.Probe.null}, i.e. off) is the pool's one
    attach point for observers ({!Obs.Probe}): every {!Batcher_rt} and
    {!Shard_rt} built over the pool reports each op's lifecycle to it.
    Its recorder must use the [Nanoseconds] clock and its recorder and
    health instance must cover all workers ([Invalid_argument]
    otherwise). The pool itself writes the probe's recorder — steal
    attempts from the workers' task-finding loop and the work-class
    segments of {!work_class} — and beats its health instance once per
    scheduling-loop iteration. Each domain writes only its own worker's
    ring, so recording needs no synchronization; read the recorder out
    only after {!run} returns (and, for spawned workers' rings, ideally
    after {!teardown}). Stream a health instance with
    {!Obs.Snapshot.to_file} and watch it with [bin/monitor.exe].

    [backoff] (default {!default_backoff}) sets the idle-worker policy.
    While a worker is past its spin phase, individual failed-steal
    events are not emitted; they are counted and flushed as one
    [Steals_suppressed] event on the next successful steal, so summary
    attempt counts stay truthful without idle pools flooding the rings. *)

val num_workers : t -> int

val probe : t -> Obs.Probe.t
(** The probe passed at creation, or {!Obs.Probe.null}. *)

val teardown : t -> unit
(** Stops and joins the spawned domains. The pool must be idle. *)

type 'a promise

val run : t -> (unit -> 'a) -> 'a
(** Execute a computation to completion, participating as worker 0.
    Must be called from outside the pool (not from a task). Exceptions
    raised by the computation are re-raised. *)

val async : t -> (unit -> 'a) -> 'a promise
(** Schedule a task on the calling worker's core deque, or on its batch
    deque in batch context. Must be called from within a task. *)

val await : t -> 'a promise -> 'a
(** Wait for a promise. In a core task this suspends the task (the
    worker is not blocked); in batch context it helps with batch work
    (see {!help}) until the promise is done. Must be called from within
    a task. Re-raises the task's exception, if any. *)

val fork_join : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Binary fork: runs the two thunks in parallel and joins. *)

val parallel_for : t -> ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] runs [body i] for [lo <= i < hi] with
    recursive binary splitting down to [grain] (default: auto). *)

val parallel_map : t -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Element-wise map with binary splitting; empty input yields [[||]]. *)

val map_reduce :
  t -> ?grain:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** Parallel map then tree reduction. [combine] must be associative;
    [init] is its identity. *)

val parallel_prefix_sums : t -> int array -> int array
(** Inclusive parallel prefix sums (two-pass), the primitive of the
    batched counter and of LAUNCHBATCH compaction. *)

val in_batch : unit -> bool
(** Whether the caller runs batch work: a BOP started by {!exec_bop} or
    a task spawned inside one. *)

val exec_bop : t -> (t -> 's -> 'op array -> unit) -> 's -> 'op array -> unit
(** [exec_bop t bop s ops] runs [bop t s ops] on the calling worker in
    batch context, so its [async]s go to the batch deque and its
    [await]s help instead of suspending. The caller's context is
    restored when [bop] returns or raises. Must be called on a pool
    worker. *)

val help : t -> int -> int
(** [help t misses] is one round of a worker that waits on batch work it
    cannot run itself: it runs one batch task — from its own batch
    deque, else stolen from another worker's — and returns 0, or it
    takes one idle step and returns [misses + 1]. The idle step follows
    the pool's {!backoff} record without its burst phase: the batch
    being waited for is already running, so the worker relaxes once per
    round until [burst_limit] misses, then sleeps on the same ramp. A
    helped task runs in batch context; the worker's own context (its
    batch flag and work class) is restored after it, so a worker trapped
    in BATCHIFY is back in core context when its operation completes.
    Must be called on a pool worker. *)

val worker_index : unit -> int option
(** Index of the worker executing the caller, if inside a pool. *)

val work_class : t -> Obs.Recorder.work_class
(** The calling worker's ambient work class ([Wcore] outside a pool or
    on an unobserved pool). On an observed pool every worker's
    wall-clock is attributed to its ambient class as tiling [Work]
    segments: tasks inherit the class of their creation site
    ({!async}) or suspension site ({!await}), the root computation of
    {!run} starts in [Wcore], and time between tasks (deque polling,
    steals, backoff) is [Wsched]. *)

val set_work_class : t -> Obs.Recorder.work_class -> unit
(** Switch the calling worker's ambient class, closing the current
    [Work] segment. No-op outside a pool; a plain compare when the
    class is unchanged or the pool is unobserved. Used by
    {!Batcher_rt} to mark a trapped caller's wait ([Wwait]) and to
    bracket LAUNCHBATCH setup ([Wsetup]) and the BOP body ([Wbatch]). *)
