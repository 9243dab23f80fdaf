(** Conformance checking: one seeded operation script, three executions.

    For every batched structure, {!run} generates a random operation
    script and pushes it through

    + the {e real runtime} — {!Runtime.Batcher_rt.batchify} from a
      parallel loop on a real {!Runtime.Pool}, and
    + the {e simulator} — a {!Sim.Workload} whose cost model applies the
      script's actual operations to a second structure instance as each
      simulated batch launches (so per-op results are threaded through
      the cost model), with the scheduler's invariant checks on and the
      resulting trace fed to {!Sim.Trace.validate},

    and, for each execution, replays the exact batch linearization the
    scheduler chose against the structure's {!Oracle} — batches in
    execution order, the structure's documented phase order within each
    batch. Per-op results must match the oracle's op by op, and the
    final states must render identically. Invariant 1 makes the batch
    sequence a true linearization, so agreement here is agreement with a
    sequential specification under the scheduler's real, adversarially
    random interleavings.

    A {!subject} packs a structure with its script generator, oracle
    glue and simulator cost model; {!subjects} covers every structure in
    [lib/batched/] that exposes operation records. The order-maintenance
    list (the one structure with a direct, non-record interface) gets
    the dedicated {!order_list_check}. *)

type subject

val subject_name : subject -> string

val subjects : subject list
(** counter, fifo, stack, pqueue, hashtable, skiplist, two_three,
    ostree, sp_order. *)

val find : string -> subject
(** Raises [Not_found] for unknown names. *)

type report = {
  subject : string;
  rt_batches : int;  (** batches the real runtime executed *)
  rt_max_batch : int;
  sim_batches : int;  (** batches the simulator launched *)
  sim_makespan : int;
}

val run :
  ?n_ops:int ->
  ?seed:int ->
  ?workers:int ->
  ?sim_p:int ->
  ?backoff:Runtime.Pool.backoff ->
  subject ->
  (report, string) result
(** [run subject] executes both paths with a fresh structure and oracle
    each. Defaults: 96 ops, seed 1, a 3-worker pool, a 4-worker
    simulation. [Error] carries the first divergence (path, batch index,
    op) or invariant failure.

    The runtime leg runs under [Exact] {!Obs.Invariants} checkers with
    the paper's Lemma-2 bound of 2 (its batch cap is the worker count),
    and any violation is an [Error].

    [backoff] sets the real pool's idle-worker policy (the fuzz driver
    sweeps a small ablation list so extreme spin/sleep settings get
    conformance coverage too). *)

val order_list_check : ?n:int -> ?seed:int -> unit -> (unit, string) result
(** Random [insert_after] script against the naive list oracle, then a
    full pairwise [precedes] comparison ([n] insertions, default 128). *)
