(** The simulator leg: open-loop runs over {!Sim.Openloop} on the
    virtual clock, one per worker count in the scenario's P-sweep.

    P is an integer on the virtual clock, so the sweep is honest to
    hundreds of workers on a 1-CPU box. Each point's per-request waits
    are cross-checked against the composed Theorem-1 bound terms
    ({!Check.Bound.service_check}); a point whose tail escapes the
    budget flags a batching/scheduling regression. *)

type point = {
  p : int;
  shards : int;
  requests : int;
  makespan_ns : float;
  goodput : float;  (** completed requests per second of virtual time *)
  classes : Latency.class_stats list;  (** ["all"] first *)
  batches : int;
  max_batch : int;
  max_batches_seen : int;  (** the open-loop Lemma-2 figure *)
  max_in_system : int;
  bound : (unit, string) result;  (** the Theorem-1 wait cross-check *)
  bound_budget_ns : float;
      (** {!Check.Bound.service_budget} on this run's own measured
          terms, in virtual-clock ns — the analytic per-request wait
          budget *)
  bound_terms : Check.Bound.service_terms;
      (** the budget split into work / serialization / slack terms, in
          virtual-clock units: which of them dominates says whether the
          point is throughput-bound or serialization-bound *)
  trace : Obs.Reqtrace.t;
      (** per-request spans on the virtual clock —
          {!Obs.Reqtrace.null} unless run with [~trace:true]. Queue and
          sched phases are structurally zero (the engine admits at
          arrival, resumes at completion); pending/exec carry the
          anatomy, and [batches_seen] is per-request exact. *)
}

val run_point : ?trace:bool -> Scenario.t -> p:int -> point
(** One sweep point: generate the scenario's request stream (fresh and
    identical for every point), route keys to shards, simulate, and
    digest. [trace] (default false) fills the point's [trace] field
    deterministically; two runs of one point are byte-identical. *)

val run : ?trace:bool -> Scenario.t -> point list
(** The full sweep, [Scenario.sim_p] in order. *)
