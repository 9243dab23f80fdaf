(** Discrete-event simulation of the BATCHER scheduler (Section 4 of the
    paper).

    Each of [p] workers executes at most one cost unit per timestep; a
    steal attempt (successful or not) also consumes one timestep, matching
    the accounting of the analysis. The scheduler state machine follows
    Figure 3:

    - every worker keeps a {e core deque} and a {e batch deque}
      (Invariant 3);
    - a free worker pops its nonempty deque, or — only when both are
      empty — steals, alternating between victims' core and batch deques
      (the alternating-steal policy);
    - executing a data-structure node parks an operation record in the
      worker's [pending] slot and traps the worker;
    - a trapped worker only works from batch deques; with an empty batch
      deque it resumes (status [done]), launches (CAS on the global batch
      flag, status [pending]), or steals from a random batch deque;
    - LAUNCHBATCH snapshots the pending array (giving batches of at most
      [p] operations — Invariant 2), wraps the data structure's BOP DAG
      with Θ(p)-work / Θ(lg p)-span setup and cleanup stages, and at most
      one batch is in flight at any time (Invariant 1).

    Setting [sequential_batches] degenerates BOP DAGs into a single
    sequential chain, which models {e flat combining}. The remaining knobs
    are ablations: [steal_policy], [launch_threshold] (accumulate-k
    launching), and [batch_cap]. *)

type steal_policy =
  | Alternating  (** the paper's policy: even attempts core, odd batch *)
  | Core_only
  | Batch_only
  | Uniform_random

(** How LAUNCHBATCH's scheduler overhead is modeled — the paper's
    conclusion asks whether the Θ(lg P)-span setup can be reduced by a
    cleverer communication mechanism; these variants quantify what such
    an improvement would buy (ablation A4). *)
type overhead_model =
  | Tree_setup  (** the paper's accounting: Θ(P)/Θ(lg P) setup + cleanup *)
  | Fused_setup  (** one fused Θ(P)/Θ(lg P) stage (merged status flips) *)
  | No_setup  (** zero-overhead oracle: an upper bound on any mechanism *)

type config = {
  p : int;
  seed : int;
  steal_policy : steal_policy;
  launch_threshold : int;  (** launch only when this many ops are pending *)
  batch_cap : int;  (** max data-structure nodes per batch, <= p *)
  sequential_batches : bool;  (** flat-combining mode *)
  overhead : overhead_model;
  check_invariants : bool;  (** assert Invariants 1-4 while running *)
  max_steps : int;  (** safety bound; raise if exceeded *)
}

val default : p:int -> config
(** Paper parameters: alternating steals, threshold 1, cap [p], parallel
    batches, invariant checks on, seed 1. *)

val run : ?probe:Obs.Probe.t -> config -> Workload.t -> Metrics.t
(** Simulate the workload to completion. The workload's models are
    [reset] before the run. Raises [Failure] on invariant violation or
    if [max_steps] is exceeded.

    [probe] (default {!Obs.Probe.null}, i.e. off) observes each op's
    lifecycle through the same four hooks as the real runtime, stamped
    with the simulator's timestep: op issue, batch start (with the
    modeled setup work), batch end, and op done — whose latency runs
    from issue to the worker's resume, and which carries the Lemma-2
    batches-seen count. Its recorder additionally captures worker
    status transitions, steal attempts and work-class runs; it must be
    a [Timesteps] recorder covering at least [p] workers. The probe
    must not carry {!Obs.Health} or {!Obs.Reqtrace}: both compare
    stamps with the monotonic clock ([Invalid_argument]). Its
    invariant checkers are an audit {e independent} of both the sim's
    internal [check_invariants] asserts and the post-hoc
    {!Trace.validate}; violations never raise here, so read the
    counters after the run. The ablation configs can legitimately
    break the paper-default bounds (Lemma 2 via [batch_cap],
    [launch_threshold] or [sequential_batches]); size the checker's
    [lemma2_bound] accordingly. *)

val run_traced :
  ?probe:Obs.Probe.t ->
  config ->
  Workload.t ->
  Metrics.t * Trace.event list
(** Like {!run}, additionally returning the chronological scheduler
    event trace for {!Trace.validate}. (The validator assumes the
    default immediate-launch, full-cap configuration; traces from the
    launch-threshold or batch-cap ablations may legitimately violate its
    Lemma-2 bound.) *)
