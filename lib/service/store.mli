(** The batched structures behind the service, behind one first-class
    interface so scenarios pick a backing store by name and the drivers
    stay store-agnostic.

    A store adapts one [Batched] structure to the service's needs on
    both execution paths: [op_of] translates a generated request into
    the structure's operation record, [plan]/[run_batch] are what
    [Runtime.Shard_rt] needs to execute it for real, and [model] is the
    per-shard simulator cost model [Sim.Openloop] charges batches with.
    [prepopulate] loads the even keys of [0, n_keys) before measurement
    so gets/deletes hit ~50% and the structure is at its steady-state
    size. *)

module type STORE = sig
  type t
  type op

  val name : string

  val supports_range : bool
  (** When [false], scenarios fold the range share into gets
      ({!Gen.fold_range_into_get}) before generating. *)

  val create : seed:int -> shard:int -> t

  val prepopulate : t -> shards:int -> shard:int -> n_keys:int -> unit
  (** Sequentially insert the even keys of [0, n_keys) owned by
      [shard] under {!Batched.Shard.route}. *)

  val op_of : Gen.requests -> int -> op
  (** [op_of r i] is request [i]'s operation. *)

  val plan : shards:int -> op -> op Batched.Shard.plan

  val run_batch : Runtime.Pool.t -> t -> op array -> unit
  (** The BOP, parallelized over the pool where the structure supports
      it. Per-shard Invariant 1 makes calls on the same [t] serial. *)

  val model : n_keys:int -> shards:int -> int -> Batched.Model.t
  (** [model ~n_keys ~shards i] is shard [i]'s simulator cost model,
      sized for its ~[n_keys/2/shards]-element steady state. *)
end

type t = (module STORE)

val skiplist : t
(** {!Batched.Skiplist}: ranges supported (scatter + sorted merge);
    searches of a batch run through [Pool.parallel_for]. *)

val hashtable : t
(** {!Batched.Hashtable}: point ops only. *)

val two_three : t
(** {!Batched.Two_three} (functional; state is a [t ref]): point ops
    only — cross-shard range plans are [Batched.Ostree] territory. *)

val all : (string * t) list
val find : string -> t option
