(** K independent {!Batcher_rt} instances over one {!Pool} — the
    runtime half of keyspace sharding.

    Invariant 1 serializes batches {e per structure}; registering K
    instances makes it per-shard, so up to [min K P] batches run
    concurrently. Each shard carries its index as structure id
    in every event it reports to the pool's probe, so all
    observability separates per shard for free.

    Routing policy lives in [Batched.Shard] (which computes per-op
    plans); this module only executes submissions. A typical caller:

    {[
      match Batched.Shard.plan sh op with
      | Batched.Shard.Point s -> Shard_rt.batchify t ~shard:s op
      | Batched.Shard.Fanout { sub; merge } ->
          Shard_rt.scatter t sub;
          merge ()
    ]} *)

type ('s, 'op) t

val create :
  pool:Pool.t ->
  shards:int ->
  state:(int -> 's) ->
  run_batch:(Pool.t -> 's -> 'op array -> unit) ->
  unit ->
  ('s, 'op) t
(** [state i] builds shard [i]'s structure instance; [run_batch] is the
    shared BOP (it receives the shard's own state, and by per-shard
    Invariant 1 never runs concurrently {e with itself on the same
    shard} — different shards' batches do overlap, so [run_batch] must
    not touch state shared across shards). Shard [i] is registered
    under structure id [i] and reports to the pool's probe like any
    {!Batcher_rt}; when the probe carries a health or invariant
    instance, it must cover [shards] structures. *)

val shards : ('s, 'op) t -> int
val pool : ('s, 'op) t -> Pool.t
val batcher : ('s, 'op) t -> int -> ('s, 'op) Batcher_rt.t
val state : ('s, 'op) t -> int -> 's

val batchify : ?token:int -> ('s, 'op) t -> shard:int -> 'op -> unit
(** Submit a point operation to one shard; the caller is trapped until
    the batch containing it completes (see {!Batcher_rt.batchify}). Must be called from within a pool
    task. [token] keys the op in the request trace (default [-1],
    untraced); see {!Batcher_rt.batchify}. *)

val scatter : ?token:int -> ?token_shard:int -> ('s, 'op) t -> 'op array -> unit
(** Submit one sub-operation per shard ([Array.length = shards]),
    fork-join style: the sub-operations are submitted by parallel
    tasks, so when workers are free a cross-shard query pays about one
    batch latency, not K. Returns when every sub-batch has completed; the caller merges
    the sub-results afterwards. Must be called from within a pool
    task.

    Request tracing keeps one consistent chain per request: only the
    [token_shard] (default 0) sub-operation carries [token] (default
    [-1], untraced); the fork-join barrier over the remaining shards
    lands in the traced request's sched_post residual. *)

val stats : ('s, 'op) t -> Batcher_rt.stats array
(** Per-shard counters, index = shard. *)

val total_stats : ('s, 'op) t -> Batcher_rt.stats
(** Sum over shards (max for [max_batch]). *)
