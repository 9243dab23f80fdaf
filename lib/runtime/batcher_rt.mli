(** The real BATCHER runtime: implicit batching over a {!Pool}.

    A program task calls {!batchify} exactly like a blocking call to a
    concurrent structure. The caller publishes its operation record in
    its worker's slot of a size-P pending array and is then {e trapped},
    as in the paper's scheduler (Invariant 3, Figure 3): until a batch
    has completed its operation, the worker runs only batch work. It
    launches a batch itself whenever the global batch flag is free —
    collecting every published record, at most P (Invariant 2), and
    running the user-supplied batched operation (BOP) inline — or else
    helps with the batch tasks of the BOP in flight. No continuation is
    captured.
    At most one batch runs at a time (Invariant 1), so [run_batch] needs
    no locks or atomics of its own, and it may use the pool's
    [parallel_for]/[fork_join] freely: inside a BOP they run on the
    pool's batch deques. Since every worker has at most one operation
    pending, at most P are pending at any instant, and an operation
    sees at most 2 launches while pending (Lemma 2).

    Observers attach once, at the pool ({!Pool.create}'s probe): each
    operation reports its submit, its batch's launch and finish, and
    its resume to the probe, one {!Obs.Probe} call per event.

    [run_batch] must not itself call {!batchify} (the paper's model
    likewise forbids nested data-structure calls from inside a BOP);
    {!batchify} raises [Invalid_argument] if it does. *)

type ('s, 'op) t

val create :
  ?sid:int ->
  pool:Pool.t ->
  state:'s ->
  run_batch:(Pool.t -> 's -> 'op array -> unit) ->
  unit ->
  ('s, 'op) t
(** [sid] (default 0) labels this structure in every event it reports
    to the pool's probe — recorder tracks, health histograms, online
    invariant checks and request-trace spans; give each structure of a
    multi-structure program a distinct id, within the structure count
    of the probe's health and invariant instances. When the probe
    records, every BATCHIFY emits op-issue/op-done events with the
    operation's issue→batch-completion latency in nanoseconds and its
    "batches launched while pending" count (the Lemma-2 figure),
    counted from the op's publication. *)

val batchify : ?token:int -> ('s, 'op) t -> 'op -> unit
(** Submit one operation and wait, trapped, until the batch containing
    it has completed: the calling worker runs only batch work meanwhile,
    possibly launching the batch itself, and returns on the same worker
    with the same stack. Results are communicated through mutable fields
    of ['op], as in the paper's operation records.

    Raises [Invalid_argument], before publishing anything, when called
    outside a pool task (the caller has no worker slot) or from batch
    work — inside a BOP, where the call could never complete.

    [token] (default [-1], untraced) keys this operation's milestones
    in the probe's {!Obs.Reqtrace} instance. *)

val state : ('s, 'op) t -> 's

type stats = {
  batches : int;
  ops : int;
  max_batch : int;
  ovf : int;
      (** always 0: the trapped path has no overflow queue. Kept for
          readers of the stats record that still report it. *)
}

val stats : ('s, 'op) t -> stats
