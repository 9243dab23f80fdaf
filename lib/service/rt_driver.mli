(** The runtime leg: a timed open-loop run over the real
    effects-based pool and {!Runtime.Shard_rt}, one per shard count in
    the scenario's K-sweep.

    The dispatcher (the root task of [Pool.run]) walks the
    pre-generated schedule and releases each request at
    [t0 + arrive_ns] wall-clock; the serving task measures its latency
    from that {e scheduled} stamp when it completes — a request that
    sat behind a backlog is charged the sit, which is what rules out
    coordinated omission. Stores are prepopulated before the clock
    starts. *)

type point = {
  shards : int;
  workers : int;
  requests : int;
  elapsed_ns : float;  (** wall time, first release to last completion *)
  goodput : float;  (** completed requests per wall second *)
  classes : Latency.class_stats list;  (** ["all"] first *)
  batches : int;
  max_batch : int;
  stalls : int;  (** {!Obs.Health} stall episodes *)
  lag_ns : int array;
      (** per request, in schedule order: how late the dispatcher
          released it, [now - (t0 + arrive_ns)] from the clock read
          that released it (>= 0). Digest it with {!Latency.digest};
          [run_point] does not, so the sort stays out of its wall
          time. *)
  trace : Obs.Reqtrace.t;
      (** per-request span capture for this point —
          {!Obs.Reqtrace.null} unless the run was started with
          [~trace:true] *)
}

val run_point :
  ?workers:int ->
  ?snapshot_path:string ->
  ?duration_s:float ->
  ?trace:bool ->
  Scenario.t ->
  shards:int ->
  point
(** One timed run. [workers] defaults to
    [Domain.recommended_domain_count ()]; [duration_s] overrides the
    scenario's. [snapshot_path] attaches the online checkers
    ({!Obs.Invariants}, one per shard) to the probe and streams them
    with the run's {!Obs.Health} as {!Obs.Snapshot} JSONL (sampled every
    100 ms from a separate domain), with goodput and queue-depth gauges,
    for [bin/monitor.exe]. Without it the checkers stay off.

    The dispatcher beats for the worker it holds, so every worker's
    heartbeat on the stream is fresh while the run is healthy.

    [trace] (default false) captures every request's span in an
    {!Obs.Reqtrace} instance (token = schedule index), returned in the
    point's [trace] field: release/start/submit milestones and the
    batch path's wait/exec deltas, from which every read-out (the
    slowest spans per op class included) is computed after the run.
    The run's {!Obs.Health} instance is always on; the trace rides on
    the same {!Obs.Probe} attached to the pool. *)

val run :
  ?workers:int -> ?snapshot_path:string -> ?duration_s:float -> ?trace:bool ->
  Scenario.t -> point list
(** The full K-sweep, [Scenario.rt_shards] in order. The snapshot file
    (when given) is truncated per point — last point wins. *)
