(** Keyspace sharding across K independent instances of a batched
    structure.

    The paper's Invariant 1 — one batch in flight per structure — is a
    throughput ceiling: every operation funnels through a single batch
    flag. Splitting the keyspace across K instances makes the invariant
    per-shard; each shard runs its own batches concurrently with the
    others, and the Theorem-1 accounting composes because a shard is
    just another batched structure (the per-shard bound is
    O((T1 + K·n·s(n/K))/P + m·s(n/K) + T∞)).

    This module is substrate-agnostic: it decides {e where} operations
    go — a {!plan} — not how they are submitted. [Runtime.Shard_rt]
    executes plans over K [Batcher_rt] instances (point ops submit to
    one shard; fan-out ops scatter one sub-operation per shard with
    fork-join and then [merge]); the simulator models shards as
    separate structures via [Sim.Workload.sharded_ops] with {!route}
    as the node-to-structure assignment. *)

val route : shards:int -> int -> int
(** [route ~shards key] is the owning shard of [key]: deterministic,
    total over all of [int] (including negatives), and in
    [\[0, shards)]. With [shards <= 1] always 0. Keys are mixed
    (Fibonacci hashing) so clustered ranges still balance. *)

val merge_sorted : int list array -> int list
(** K-way merge of ascending lists into one ascending list — the
    gather half of a cross-shard range query. *)

type 'op plan =
  | Point of int  (** submit to this single shard *)
  | Fanout of {
      sub : 'op array;
          (** one fresh sub-operation per shard; index = shard *)
      merge : unit -> unit;
          (** after every sub-operation completed: fold the shards'
              sub-results into the original operation's record *)
    }

type ('t, 'op) spec = {
  name : string;
  make : int -> 't;  (** fresh instance for the given shard index *)
  apply : 't -> 'op array -> unit;
      (** the structure's BOP; results land in the records *)
  plan : shards:int -> 'op -> 'op plan;
}
(** How one batched structure shards. *)

type ('t, 'op) t
(** K direct (unbatched) instances plus the spec — the sequential form
    of a sharded structure, used by tests and oracles. The runtime
    equivalent lives in [Runtime.Shard_rt]. *)

val create : ('t, 'op) spec -> shards:int -> ('t, 'op) t
val shards : ('t, 'op) t -> int
val instance : ('t, 'op) t -> int -> 't

val plan : ('t, 'op) t -> 'op -> 'op plan

val run_shard_batch : ('t, 'op) t -> shard:int -> 'op array -> unit
(** Apply one batch to one shard's instance. *)

val apply_seq : ('t, 'op) t -> 'op -> unit
(** Execute one operation to completion sequentially: route-and-apply
    for point plans, scatter-all-then-merge for fan-out plans. *)

val models : shards:int -> (int -> Model.t) -> Model.t array
(** One simulator cost model per shard ([model_for i] should model the
    shard at ~1/K of the full structure's size); pair with {!route} as
    the workload's node assignment — see [Sim.Workload.sharded_ops]. *)

val skiplist : (Skiplist.t, Skiplist.op) spec
(** Insert/Mem/Delete route by key; Range fans out and merges the
    shards' sorted answers. *)

val hashtable : (Hashtable.t, Hashtable.op) spec
(** All operations are point operations (routed by key). *)

val ostree : (Ostree.t ref, Ostree.op) spec
(** Insert/Delete route by key; Range fans out with a sorted merge;
    Rank fans out and sums (each key below the pivot lives in exactly
    one shard). Select plans to shard 0 when [shards <= 1] and raises
    [Invalid_argument] otherwise — an exact order-statistic over K > 1
    shards needs a multi-round quantile search, which a single scatter
    round cannot express. *)
