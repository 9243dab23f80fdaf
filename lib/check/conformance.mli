(** Conformance checking: one seeded operation script, three executions.

    For every batched structure, {!run} generates a random operation
    script and pushes it through

    + the {e real runtime} — K shards of the structure behind
      {!Runtime.Shard_rt}, each op submitted from a parallel loop on a
      real {!Runtime.Pool} to the shard its [Batched.Shard] plan names,
      and
    + the {e simulator} — a {!Sim.Workload} whose cost model applies the
      script's actual operations to a single structure instance as each
      simulated batch launches (so per-op results are threaded through
      the cost model), with the scheduler's invariant checks on and the
      resulting trace fed to {!Sim.Trace.validate},

    and, for each execution, replays the exact batch linearization the
    scheduler chose against the structure's {!Oracle} — batches in
    execution order, the structure's documented phase order within each
    batch. Invariant 1 makes each structure's batch sequence a true
    linearization; with K shards it holds per shard, so each shard's
    batches replay against that shard's own oracle. Per-op results must
    match the oracle's op by op, fan-out sub-results included, and each
    instance's final state must render identically to its oracle's.
    Agreement here is agreement with a sequential specification under
    the scheduler's real, adversarially random interleavings.

    With K shards the runtime leg also checks that every point op ran
    on the shard its plan names, and that the runtime batched every
    submission, counting each fan-out's sub-operations. Once the
    parallel loop has drained, it submits the subject's full-domain
    fan-out queries — a range for the skip list and ostree, and a rank
    for the ostree — whose merged answers must equal the union of the
    shard oracles.

    A {!subject} packs a structure with its script generator, oracle
    glue, simulator cost model and, for the skip list, hash table and
    ostree, its [Batched.Shard] plan; {!subjects} covers every structure
    in [lib/batched/] that exposes operation records. The
    order-maintenance list (the one structure with a direct, non-record
    interface) gets the dedicated {!order_list_check}. *)

type subject

val subject_name : subject -> string

val subjects : subject list
(** counter, fifo, stack, pqueue, hashtable, skiplist, two_three,
    ostree, sp_order. *)

val find : string -> subject
(** Raises [Not_found] for unknown names. *)

val shardable : subject -> bool
(** The skip list, hash table and ostree: the subjects {!run} accepts
    with [shards > 1]. *)

val shard_counts : subject -> int list
(** The shard counts a conformance sweep runs the subject at:
    [[1; 2; 4]] when {!shardable}, [[1]] otherwise. *)

type report = {
  subject : string;
  rt_batches : int;  (** batches the real runtime executed, all shards *)
  rt_max_batch : int;
  sim_batches : int;  (** batches the simulator launched *)
  sim_makespan : int;
}

val run :
  ?n_ops:int ->
  ?seed:int ->
  ?workers:int ->
  ?sim_p:int ->
  ?shards:int ->
  ?backoff:Runtime.Pool.backoff ->
  subject ->
  (report, string) result
(** [run subject] executes both paths with fresh structures and oracles.
    Defaults: 96 ops, seed 1, a 3-worker pool, a 4-worker simulation,
    one shard. [Error] carries the first divergence (path, shard, batch
    index, op) or invariant failure, and is also returned for
    [shards < 1] and for [shards > 1] on a subject that is not
    {!shardable}.

    The runtime leg runs under [Exact] {!Obs.Invariants} checkers, one
    structure per shard, with the paper's Lemma-2 bound of 2 (its batch
    cap is the worker count), and any violation is an [Error].

    [backoff] sets the real pool's idle-worker policy (the fuzz driver
    sweeps a small ablation list so extreme spin/sleep settings get
    conformance coverage too). *)

val order_list_check : ?n:int -> ?seed:int -> unit -> (unit, string) result
(** Random [insert_after] script against the naive list oracle, then a
    full pairwise [precedes] comparison ([n] insertions, default 128). *)
