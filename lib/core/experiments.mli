(** Drivers that regenerate every figure and table of the paper's
    evaluation (and this repo's extension experiments). Each returns
    structured rows; {!Report} renders them. The experiment ids match
    DESIGN.md's per-experiment index. *)

(** E1 — Figure 5: BATCHER vs sequential skip-list insertion throughput,
    one row per initial list size. Throughput is records per simulated
    timestep; [seq_throughput] is worker-count independent. *)
type fig5_row = {
  initial : int;
  seq_throughput : float;
  batcher : (int * float * float) list;
      (** (P, mean throughput, sample stddev) over the seed set *)
}

val fig5 :
  ?n_records:int ->
  ?records_per_node:int ->
  ?ps:int list ->
  ?sizes:int list ->
  ?seed:int ->
  ?seeds:int list ->
  unit ->
  fig5_row list
(** Defaults are the paper's parameters: 100,000 insertions, 100 records
    per BATCHIFY, initial sizes 20K/100K/1M/10M/100M, P = 1..8. Each
    BATCHER point averages over [seeds] (default: three seeds derived
    from [seed]); the sequential baseline is deterministic. *)

(** E1 on the real runtime — one cell of Figure 5, timed. Two lists are
    built from the same [initial] random keys, inserted in random order,
    so the arena holds nodes in no key order. SEQ inserts [records]
    fresh keys into one with [insert_seq]; BAT inserts the same keys, in
    the same order, into the other through BATCHIFY, 100 records per
    call (the paper's value), from a grain-1 parallel loop on a pool of
    [p] workers. Its BOP concatenates the batch's record arrays into one
    [Skiplist.run_batch_with] under the pool's [parallel_for]. *)
type fig5_rt_row = {
  rt_initial : int;
  rt_p : int;
  seq_s : float;  (** wall-clock seconds *)
  bat_s : float;
  words_per_record : float;
      (** minor words that every domain allocated over the pool's life,
          per record: the callers' records and arrays, the batcher's and
          the BOP's *)
  agree : bool;
      (** BAT's final key set equals SEQ's and its layout passes
          [check_invariants] *)
}

val fig5_rt_records_per_node : int

val fig5_rt_cell :
  ?seed:int -> ?probe:Obs.Probe.t -> initial:int -> records:int -> p:int -> unit -> fig5_rt_row
(** [probe] (default {!Obs.Probe.null}) is BAT's pool's probe; a
    recorder on it records the timed run. *)

val fig5_sim_workload : initial:int -> records:int -> Sim.Workload.t
(** The same cell on the simulator: {!fig5}'s skip-list model with
    [initial] keys and [records]/100 nodes of 100 records each. *)

val sim_recorded : ?seed:int -> p:int -> Sim.Workload.t -> Obs.Recorder.t * Sim.Metrics.t
(** A [Sim.Batcher.default ~p] run into a [Timesteps] recorder that
    holds every event: a first, deterministic run counts each worker's
    events, and the second is recorded. *)

(** A closed loop on both executions, from one spec: a grain-1 parallel
    loop of [cl_calls] calls, call [i] making one BATCHIFY of
    [cl_per_call] records on structure [i mod k] of the [k] in
    [cl_structures] (its sid is its position). A counter record adds
    1; a skip-list record inserts a key new to a list of [cl_initial]. *)
type closed_ds = Counter | Skiplist

type closed = {
  cl_structures : closed_ds list;
  cl_initial : int;
  cl_per_call : int;
  cl_calls : int;
}

val closed_counter : calls:int -> closed
(** One counter, one record per call. *)

val closed_multi : calls:int -> closed
(** A counter and a 100,000-key skip list, ten records per call. *)

val closed_sim : closed -> Sim.Workload.t
(** {!Sim.Workload.interleaved_ops}, each model priced at [cl_per_call]
    records per node. *)

val closed_rt : ?seed:int -> ?probe:Obs.Probe.t -> p:int -> closed -> int array * float
(** The loop on a pool of [p] workers: by sid, the records each
    structure applied (the counter's value, the skip list's length less
    [cl_initial]), and the loop's wall-clock seconds. *)

(** M3 — shard scaling on the runtime: a grain-1 parallel loop of
    [batchify] calls on {!Runtime.Shard_rt} with K shards, K ∈ {1, 2,
    4, 8}, on two workers. Each shard's BOP sleeps
    {!shard_scaling_service_s}/K before a counter BOP: a structure
    whose batch costs s(n/K) at 1/K of the keyspace. At K = 1 the
    batch flag serializes every sleep (Invariant 1); at K > 1 batches
    of different shards overlap while each gets K times cheaper, the
    mechanism of the composed bound O((T1 + K n s(n/K))/P + m s(n/K) +
    T∞). Keys route through {!Batched.Shard.route}. *)
type shard_row = {
  sk_shards : int;
  sk_workers : int;
  sk_ops : int;  (** ops per timed run *)
  sk_ns : int;  (** fastest of {!shard_scaling_reps} timed runs *)
  sk_cv : float;
      (** stddev/mean of the timed runs: above a few percent, read
          [sk_ns] as a bound rather than a value *)
  sk_batches : int;  (** over every run, the warm-up included *)
  sk_max_batch : int;
  sk_agree : bool;
      (** the shards' counters sum to the number of ops submitted *)
}

val shard_scaling_reps : int
(** 8 *)

val shard_scaling_service_s : float
(** 0.001: the K = 1 batch's service time *)

val shard_scaling : ?ops:int -> unit -> shard_row list
(** One row per K, K = 1 first. [ops] (default 384) is the op count
    of each timed run; a warm-up of min(64, ops) ops runs first.
    Raises [Invalid_argument] when [ops < 1]. *)

(** E2 — flat-combining comparison on the skip-list workload. *)
type flatcomb_row = {
  fc_p : int;
  batcher_tp : float;
  flatcomb_tp : float;
  seq_tp : float;
}

val flatcomb :
  ?initial:int ->
  ?n_records:int ->
  ?records_per_node:int ->
  ?ps:int list ->
  ?seed:int ->
  unit ->
  flatcomb_row list

(** E3/E4/E5 — the Section 3 example structures: BATCHER vs the
    lock-serialized concurrent model vs sequential, plus the Theorem-1
    prediction ratio. *)
type example_row = {
  ex_p : int;
  batcher_makespan : int;
  lock_makespan : int;  (** idealized mutex: Ω(n) floor, no contention cost *)
  cas_makespan : int;  (** contended primitive: Ω(P) per access worst case *)
  seq_makespan : int;
  bound_ratio : float;  (** measured / Theorem-1 prediction *)
}

val counter_example : ?n:int -> ?ps:int list -> ?seed:int -> unit -> example_row list
val tree_example :
  ?initial:int -> ?n:int -> ?ps:int list -> ?seed:int -> unit -> example_row list
val stack_example : ?n:int -> ?ps:int list -> ?seed:int -> unit -> example_row list

(** E6 — Theorem 1 validation sweep. *)
type theory_row = {
  th_ds : string;
  th_workload : string;
  th_p : int;
  measured : int;
  predicted : int;
  ratio : float;
}

val theory_table : ?seed:int -> unit -> theory_row list

(** E8 — Theorem 3 validation: for a τ sweep, compare the measured
    makespan against (T1 + W + n·τ)/P + T∞ + S_τ(n) + m·τ, where W and
    the τ-trimmed span S_τ are {e measured} from the run's batch log. *)
type tau_row = {
  t3_p : int;
  t3_tau : int;
  t3_long_batches : int;  (** batches with s_A > τ *)
  t3_trimmed_span : int;  (** measured S_τ(n) *)
  t3_measured : int;
  t3_predicted : int;
  t3_ratio : float;
}

val theorem3 : ?seed:int -> unit -> tau_row list

(** E7 — Lemma 2: maximum number of batches any operation waits for. *)
type lemma2_row = {
  l2_workload : string;
  l2_p : int;
  max_trapped_batches : int;
}

val lemma2 : ?seed:int -> unit -> lemma2_row list

(** A1/A2/A3 — scheduler ablations on the skip-list workload. *)
type ablation_row = {
  ab_variant : string;
  ab_p : int;
  ab_makespan : int;
  ab_steals : int;
  ab_batches : int;
}

val ablate_steal : ?seed:int -> unit -> ablation_row list
val ablate_launch : ?seed:int -> unit -> ablation_row list
val ablate_cap : ?seed:int -> unit -> ablation_row list

val ablate_overhead : ?seed:int -> unit -> ablation_row list
(** A4 — LAUNCHBATCH overhead model: the paper's tree-shaped
    setup+cleanup vs a fused single stage vs a zero-overhead oracle,
    quantifying the conclusion's "can the O(lg P) overhead be reduced?"
    question. *)

(** E9 — the conclusion's pthreaded scenario: statically threaded
    programs whose only dynamic parallelism is the batched structure. *)
type pthread_row = {
  pt_threads : int;
  pt_batcher : int;
  pt_lock : int;
  pt_seq : int;
}

val pthreaded : ?ops_per_thread:int -> ?seed:int -> unit -> pthread_row list

(** E10 — several implicitly batched structures used from one program
    (counter + skip list + hash table, interleaved). The simulator keeps
    one batch in flight per structure, so batches of different
    structures overlap — the composition the modular theorem prices by
    summing per-structure terms. *)
type multi_row = {
  mu_p : int;
  mu_batcher : int;
  mu_lock : int;
  mu_seq : int;
  mu_batches : int;
}

val multi_structure : ?n:int -> ?seed:int -> unit -> multi_row list

(** A5 — batching granularity: the paper's "100 insertion records per
    BATCHIFY" knob, swept. Few records per call = launch overhead per
    record dominates; many = overhead amortizes. *)
type granularity_row = {
  g_records_per_node : int;
  g_p : int;
  g_throughput : float;
  g_seq_throughput : float;
}

val ablate_granularity :
  ?initial:int -> ?n_records:int -> ?seed:int -> unit -> granularity_row list
