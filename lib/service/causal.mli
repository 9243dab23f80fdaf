(** The concrete legs of the causal what-if profiler.

    {!Obs.Causal} is the pure engine (deltas, share-based predictions,
    divergence, measured-vs-bound winner, rendering); this module
    produces its inputs on the two executors:

    {b Sim leg} ({!run_sim}) — exact virtual speedups. Every
    (phase × factor) grid cell re-runs the identical pre-generated
    request array through {!Sim.Openloop} with one {!Sim.Costs} knob
    scaled (work/span knobs to [1/f]; the worker-share knob to [f]),
    so deltas are deterministic to the tick and byte-identical across
    runs. Each cell re-evaluates the Theorem-1 service budget
    ({!Check.Bound.service_budget}) on its own measured terms, giving
    the measured-vs-bound sensitivity comparison per cell. The traced
    baseline supplies the phase shares and must pass
    {!Obs.Reqtrace.check}.

    {b Runtime leg} ({!run_rt}) — Coz-style virtual speedup by
    relative slowdown. Speeding phase X up by [f] is produced by
    slowing every {e other} injectable phase by [f]
    ({!Runtime.Batcher_rt.inject}, self-calibrating spins) while
    stretching the open-loop arrival schedule by [f]
    ([Sweep.scale sc (1/f)]). Each cell is diffed against a {e control}
    run at the same factor with all phases slowed (the
    uniformly-dilated system), so delays the injector cannot reach
    bias both sides equally and cancel. {!Obs.Reqtrace} conservation
    is checked on every injected run; the runtime leg carries no
    Theorem-1 budget ([bound_ns = nan]). *)

type result = {
  profile : Obs.Causal.profile;
  errors : string list;
      (** conservation breaches and bound-evaluation failures, in
          occurrence order — the caller's exit-1 handle; empty on a
          healthy run *)
}

val default_sim_factors : float list
(** [[1.25; 2.0; 4.0]] *)

val default_rt_factors : float list
(** [[2.0]] — each runtime factor costs 1 control + 3 cell timed
    runs. *)

val run_sim : ?factors:float list -> Scenario.t -> result
(** At the {e first} worker count of the scenario's [sim_p] sweep —
    the overloaded end on the stock scenarios, where causal structure
    is richest. [factors] (default {!default_sim_factors})
    must all be > 1; phases swept: [bop_work], [bop_span],
    [setup_work], [setup_span], [share]. *)

val run_rt :
  ?workers:int ->
  ?duration_s:float ->
  ?factors:float list ->
  Scenario.t ->
  result
(** At the scenario's largest K. Phases swept: [bop], [setup],
    [submit]. [duration_s] defaults to min(scenario, 1 s) per point,
    [factors] to {!default_rt_factors}. *)
