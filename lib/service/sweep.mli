(** Latency vs offered load: a rate-multiplier grid over the runtime
    leg at the scenario's largest K, with per-point phase attribution
    and the throughput knee.

    Every grid point runs {!Rt_driver.run_point} with request tracing
    on, so alongside goodput and the latency digest it carries the
    exact share of total latency spent in each phase
    ({!Obs.Reqtrace.totals}) — the sweep answers both "where is the
    knee" and "what the tail is made of past it". *)

type point = {
  mult : float;  (** rate multiplier applied to the scenario's rt_rate *)
  offered_req_s : float;
      (** the generated schedule's requests ÷ the run's duration — the
          rate actually offered, bursts included (the scenario's
          rt_rate ×. mult is only the base rate between bursts) *)
  pt : Rt_driver.point;  (** the traced run: goodput, digests, spans *)
  shares : (string * float) list;
      (** {!Obs.Reqtrace.shares} of the point's trace:
          queue/sched/pending/exec shares of total latency (sum to 1) *)
}

(** Where the knee sits in the swept grid. *)
type knee_status =
  | No_point_kept_up
      (** even the lowest multiplier fell short: the capacity is below
          the grid *)
  | Inside_grid  (** a higher multiplier fell short: the knee is bracketed *)
  | Top_kept_up
      (** the highest multiplier kept up: the knee is only a lower
          bound on the capacity *)

type knee = {
  knee_req_s : float;
      (** highest swept offered rate whose delivered goodput is ≥
          {!knee_threshold} of offered; 0.0 when even the lowest point
          fell short *)
  knee_mult : float;  (** the multiplier of that point (0.0 likewise) *)
  k_status : knee_status;
}

type t = {
  shards : int;  (** the one K the grid ran at *)
  points : point list;  (** in multiplier order *)
  knee : knee;
}

val knee_threshold : float
(** 0.9: a point "keeps up" when goodput ≥ 90% of offered. Below the
    knee the ratio sits at ~1 (open-loop, the dispatcher releases on
    schedule); past saturation it falls off sharply, so the exact
    threshold barely moves the knee. *)

val knee_of_points : point list -> knee
(** Pure knee extraction over one K's measured points, with its
    {!knee_status} — a grid whose every point failed
    {!knee_threshold} still gets a knee. *)

val default_mults : float list
(** [0.25; 0.5; 1.0; 2.0; 4.0] around the scenario's calibrated rate.
    A host fast enough keeps up at every multiplier (the knee is then
    [Top_kept_up]); larger [mults] find its capacity. *)

val run :
  ?mults:float list -> ?workers:int -> ?duration_s:float -> Scenario.t -> t
(** Run the grid at the scenario's largest K. Defaults:
    {!default_mults}, duration min(scenario, 1 s) per point (a sweep
    multiplies runs). *)
