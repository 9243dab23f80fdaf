(** Theorem-1 regression checking.

    A simulated run is compared against the paper's completion-time
    bound, composed per structure (per shard, under
    {!Batched.Shard}-style sharding into K instances):

    {v (T1 + W + Σᵢ nᵢ·sᵢ)/P + m·maxᵢ sᵢ + T∞ v}

    instantiated with the run's own measurements: T1, T∞ and m come
    from {!Sim.Workload.core_metrics}, nᵢ from
    {!Sim.Workload.per_structure_nodes}; W is the BOP plus LAUNCHBATCH
    work the simulator attributed to batches; sᵢ is structure i's
    largest observed batch span (plus the setup/cleanup span of a
    launch). With one structure this is the paper's
    (T1 + W(n) + n·s(n))/P + m·s(n) + T∞ exactly; for a structure
    sharded K ways the collection term reads K·(n/K)·s(n/K) and the
    serialization term m·s(n/K), since Invariant 1 — one batch in
    flight — holds per shard. Theorem 1
    promises the makespan is within a constant factor of this expression
    {e in expectation}, so {!check} takes the acceptable factor as a
    parameter — a run exceeding it flags a scheduler-efficiency
    regression, not merely an unlucky seed, as long as the factor is
    chosen generously (the repo's experiments observe ratios below 16;
    see E6 in DESIGN.md).

    The expression only makes sense for configurations the theorem
    speaks about: immediate launching and a full batch cap. Ablated
    configurations (launch thresholds, tiny caps, core-only stealing)
    may legitimately exceed it, so {!Schedule_fuzz} applies {!check}
    only to paper-default-shaped configurations. *)

(** The bound expression's four terms, in simulated timesteps. *)
type terms = {
  core : int;  (** T1/P, rounded down *)
  collection : int;
      (** (W + Σᵢ nᵢ·sᵢ)/P: the floor of (T1 + W + Σᵢ nᵢ·sᵢ)/P less
          [core], so the four terms add up to {!theorem1} exactly *)
  serial : int;  (** m·maxᵢ sᵢ *)
  span : int;  (** T∞ *)
}

val terms : workload:Sim.Workload.t -> metrics:Sim.Metrics.t -> terms

val theorem1 : workload:Sim.Workload.t -> metrics:Sim.Metrics.t -> int
(** The bound expression, in simulated timesteps: the sum of
    {!terms}' [core], [collection], [serial] and [span], at least 1. *)

val ratio : workload:Sim.Workload.t -> metrics:Sim.Metrics.t -> float
(** makespan / {!theorem1} — the quantity that must stay bounded. *)

val check :
  ?factor:float ->
  workload:Sim.Workload.t ->
  metrics:Sim.Metrics.t ->
  unit ->
  (unit, string) result
(** [Error] when makespan exceeds [factor] (default 16.0) times
    {!theorem1}, with a description naming both sides. *)

type service_terms = {
  work_term : int;  (** (W + Σᵢ nᵢ·sᵢ)/P — the throughput-bound term *)
  serial_term : int;  (** m·maxᵢ sᵢ — the serialization-bound term *)
  slack : int;  (** the additive maxᵢ sᵢ straddling-batch allowance *)
}

val service_terms :
  p:int ->
  total_work:int ->
  per_shard_ops:int array ->
  per_shard_span:int array ->
  m:int ->
  service_terms
(** The {!service_budget} expression split into its terms, for
    dominant-term analysis: a point whose [work_term] dominates is
    throughput-bound (faster batch or setup work pays), one whose
    [serial_term] dominates is serialization-bound (only a shorter
    batch span pays). [bin/service.exe] prints them on each sim
    point's row. *)

val service_budget :
  p:int ->
  total_work:int ->
  per_shard_ops:int array ->
  per_shard_span:int array ->
  m:int ->
  int
(** The composed bound's batching terms as a per-request wait budget
    for {e open-loop} service runs ([Sim.Openloop]):
    (W + Σᵢ nᵢ·sᵢ)/P + m·maxᵢ sᵢ + maxᵢ sᵢ, where W is the run's
    total batch work (setup included), nᵢ/sᵢ are shard i's collected
    ops and widest batch span (setup span included), and [m] is the
    measured max batches-seen-while-waiting — the open-loop Lemma-2
    figure, which grows with backlog under overload so the budget
    follows the offered load. At least 1. *)

val service_check :
  ?factor:float ->
  p:int ->
  wait_max:int ->
  total_work:int ->
  per_shard_ops:int array ->
  per_shard_span:int array ->
  m:int ->
  unit ->
  (unit, string) result
(** [Error] when the run's max per-request wait exceeds [factor]
    (default 4.0) times {!service_budget} — the tail of an open-loop
    sim run escaping the bound terms that are supposed to pay for it
    flags a batching/scheduling regression. In-expectation caveat as
    {!check}: choose the factor generously. *)

val cross_check :
  ?ms_factor:float ->
  workload:Sim.Workload.t ->
  metrics:Sim.Metrics.t ->
  recorder:Obs.Recorder.t ->
  unit ->
  (unit, string) result
(** Cross-validate the event-derived attribution ({!Obs.Summary}) of a
    recorded simulator run against the scheduler's own counters —
    disjoint code paths, so agreement certifies both. Checks, in order:
    bucket conservation (sum = P × makespan, per-worker tiling, no
    drops); attributed core/batch/setup equal the simulator's
    [core_work]/[batch_work]/[setup_work]; per-shard conservation —
    folding the recorder's Batch_start/Batch_end stream per sid
    ([Obs.Summary.per_structure]) must show each structure collecting
    exactly the ops the workload assigned it, totals re-summing to the
    sim counters, and no structure batch-busy longer than the makespan;
    [span_realized] ≤ makespan; the summary's critical-path witness ≤
    makespan. The recording is read once.
    With [ms_factor], also requires the per-worker serialized-wait
    bucket to stay within
    [ms_factor × ((W+Σᵢnᵢ·sᵢ)/P + m·maxᵢsᵢ) + maxᵢsᵢ] — workers are
    trapped only while batches run or launch, so their waiting is paid
    for by the bound's two batch-execution terms (amortized batch work
    when throughput-bound, m·s(n) when serialization-bound, [m] being
    the DS-depth of the core program); like {!check} this holds in
    expectation, so apply it only to paper-default configurations with
    a generous factor.
    The recorder must be enabled and must have recorded the run whose
    [metrics] are passed. *)
