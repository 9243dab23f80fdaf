(** Open-loop service simulation on the virtual clock.

    The closed-loop simulator ({!Batcher}) runs a core DAG to
    completion: every operation is issued the moment a worker is free
    to issue it, so measured latency can never show queueing delay the
    load itself creates — the coordinated-omission trap. This engine is
    the open-loop complement for service workloads: requests carry
    {e arrival times} fixed before the run, the virtual clock advances
    event-by-event (arrival or batch completion, whichever is next),
    and a request's wait is measured from its scheduled arrival — never
    from when the system got around to admitting it.

    The batching protocol is the paper's, per shard: each of [shards]
    structure instances has its own batch flag (Invariant 1 per shard),
    a launch collects up to [batch_cap] queued requests FIFO, and
    every launch is wrapped in the Θ(P)-work / Θ(lg P)-span
    LAUNCHBATCH setup and cleanup stages. A batch's duration is the
    Brent bound of its cost DAG — (setup + BOP work)/p' + setup span +
    BOP span — with the worker share p' = max(1, P/K) statically
    partitioned across shards, a deliberately conservative model of K
    batches contending for one pool (when only one shard is busy it
    underestimates available workers, never the other way).

    Everything is deterministic: same config, models, and request
    arrays give byte-identical results. P is just an integer here, so a
    sweep to hundreds of workers is honest on a 1-CPU box. *)

type config = {
  p : int;  (** workers *)
  shards : int;
  batch_cap : int;  (** records per launch; the paper's cap is [p] *)
}

val config : ?batch_cap:int -> p:int -> shards:int -> unit -> config
(** [batch_cap] defaults to [p] (Invariant 2). *)

type result = {
  waits : int array;
      (** per request (same index as the input arrays): completion time
          minus scheduled arrival — end-to-end, queueing included *)
  launch_waits : int array;
      (** per request: its batch's launch time minus scheduled arrival
          — the pending-wait component of [waits]; the remainder
          ([waits.(i) - launch_waits.(i)]) is the batch's execution
          time. Feeds per-request phase anatomy ({!Obs.Reqtrace}). *)
  batches_seen : int array;
      (** per request: launches on its shard between arrival and
          completion, own batch included — the per-request Lemma-2
          figure ([max_batches_seen] is its maximum) *)
  makespan : int;  (** last batch completion *)
  batches : int;
  max_batch : int;
  total_work : int;  (** W: BOP plus setup/cleanup units over all batches *)
  per_shard_ops : int array;  (** nᵢ of the composed Theorem-1 bound *)
  per_shard_span_max : int array;
      (** sᵢ: widest observed BOP span plus a launch's setup/cleanup
          span, per shard; 0 for untargeted shards *)
  max_batches_seen : int;
      (** max, over requests, of launches on the request's own shard
          between its arrival and its completion (its own batch
          included) — the open-loop Lemma-2 figure; grows with backlog
          under overload, ~2 when the system keeps up *)
  max_in_system : int;  (** peak arrived-but-not-completed count *)
}

val run :
  config -> models:Batched.Model.t array -> at:int array -> shard:int array ->
  result
(** [run cfg ~models ~at ~shard]: request [i] arrives at [at.(i)], in
    cost units from time 0, on shard [shard.(i)], in [\[0, shards)].
    Simulate to completion (the arrival process is finite; every
    request is eventually served). [models.(i)] is shard [i]'s cost
    model ([Array.length models = shards]); models are [reset] before
    the run. The arrivals need not be sorted; requests are processed
    in arrival order, same-instant ones in index order. Raises
    [Invalid_argument] when [at] and [shard] differ in length, on a
    shard out of range or on a negative arrival time. *)
