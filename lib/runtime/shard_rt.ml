(* K independent batcher instances over one pool — the runtime half of
   keyspace sharding. Each shard is a full [Batcher_rt] with its own
   pending array and batch flag, registered under
   structure id [shard], so everything the pool's probe
   observes separates per shard with no further wiring. Routing (which shard
   owns a key, how fan-out results merge) is the caller's business —
   [Batched.Shard] computes plans; this module only executes
   submissions. *)

type ('s, 'op) t = {
  pool : Pool.t;
  batchers : ('s, 'op) Batcher_rt.t array;
}

let create ~pool ~shards ~state ~run_batch () =
  if shards < 1 then invalid_arg "Shard_rt.create: shards >= 1";
  {
    pool;
    batchers =
      Array.init shards (fun i ->
          Batcher_rt.create ~sid:i ~pool ~state:(state i) ~run_batch ());
  }

let shards t = Array.length t.batchers
let pool t = t.pool
let batcher t i = t.batchers.(i)
let state t i = Batcher_rt.state t.batchers.(i)

let batchify ?token t ~shard op =
  Batcher_rt.batchify ?token t.batchers.(shard) op

let scatter ?(token = -1) ?(token_shard = 0) t subs =
  let k = Array.length subs in
  if k <> Array.length t.batchers then
    invalid_arg "Shard_rt.scatter: need exactly one sub-operation per shard";
  (* Fork-join: the sub-operations are submitted by parallel tasks, so
     with free workers a cross-shard query pays about one batch latency,
     not K. Returns when all K sub-batches have completed — the caller
     may then merge.

     Request tracing records one consistent chain per request, so only
     the [token_shard] sub-operation carries the token; the other
     shards' waits and the fork-join barrier land in the traced
     request's sched_post residual. *)
  Pool.parallel_for t.pool ~grain:1 ~lo:0 ~hi:k (fun i ->
      Batcher_rt.batchify
        ~token:(if i = token_shard then token else -1)
        t.batchers.(i) subs.(i))

let stats t = Array.map Batcher_rt.stats t.batchers

let total_stats t =
  Array.fold_left
    (fun (acc : Batcher_rt.stats) (s : Batcher_rt.stats) ->
      {
        Batcher_rt.batches = acc.Batcher_rt.batches + s.Batcher_rt.batches;
        ops = acc.Batcher_rt.ops + s.Batcher_rt.ops;
        max_batch = max acc.Batcher_rt.max_batch s.Batcher_rt.max_batch;
        ovf = acc.Batcher_rt.ovf + s.Batcher_rt.ovf;
      })
    { Batcher_rt.batches = 0; ops = 0; max_batch = 0; ovf = 0 }
    (stats t)
