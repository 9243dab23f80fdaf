(* Per-structure composition of the bound's batching terms. Each
   structure's ops only ever wait out that structure's batches
   (Invariant 1 holds per structure), so the collection charge is
   Σ_i n_i·s_i — under K-way sharding, K·(n/K)·s(n/K) — and the
   serialization charge is m·max_i s_i. With one structure this is
   exactly the classic n·s and m·s; with several it is never looser.
   s_i is structure i's widest observed batch span plus the Θ(lg P)
   setup/cleanup stages a launch wraps around the BOP; a structure
   that was never targeted contributes nothing to either term. *)
let composed_terms ~workload ~metrics =
  let open Sim.Metrics in
  let setup_span = 2 * (2 * Batcher_core.Theory.log2i metrics.p + 1) in
  let n_per = Sim.Workload.per_structure_nodes workload in
  let k = Array.length n_per in
  let span_per = Array.make k 0 in
  List.iter
    (fun bd ->
      if bd.bd_sid >= 0 && bd.bd_sid < k then
        span_per.(bd.bd_sid) <- max span_per.(bd.bd_sid) bd.bd_span)
    metrics.batch_details;
  let ns_sum = ref 0 and s_max = ref 0 in
  Array.iteri
    (fun sid n_i ->
      if n_i > 0 || span_per.(sid) > 0 then begin
        let s_i = span_per.(sid) + setup_span in
        ns_sum := !ns_sum + (n_i * s_i);
        if s_i > !s_max then s_max := s_i
      end)
    n_per;
  (!ns_sum, !s_max)

type terms = {
  core : int;
  collection : int;
  serial : int;
  span : int;
}

let terms ~workload ~metrics =
  let open Sim.Metrics in
  let t1, t_inf, _n, m = Sim.Workload.core_metrics workload in
  let w = metrics.batch_work + metrics.setup_work in
  let ns_sum, s_max = composed_terms ~workload ~metrics in
  let core = t1 / metrics.p in
  { core; collection = ((t1 + w + ns_sum) / metrics.p) - core; serial = m * s_max; span = t_inf }

let theorem1 ~workload ~metrics =
  let t = terms ~workload ~metrics in
  max 1 (t.core + t.collection + t.serial + t.span)

let ratio ~workload ~metrics =
  float_of_int metrics.Sim.Metrics.makespan
  /. float_of_int (theorem1 ~workload ~metrics)

let check ?(factor = 16.0) ~workload ~metrics () =
  let predicted = theorem1 ~workload ~metrics in
  let r = ratio ~workload ~metrics in
  if r <= factor then Ok ()
  else
    Error
      (Printf.sprintf
         "Theorem 1 bound exceeded: makespan %d > %g x predicted %d (ratio %.2f)"
         metrics.Sim.Metrics.makespan factor predicted r)

(* Open-loop service runs: the composed Theorem-1 terms as a
   per-request wait budget. A request's arrival-to-completion wait is
   paid for by (a) its amortized share of everything the run collected
   and executed — the (W + Σᵢ nᵢ·sᵢ)/P term, with the whole run's work
   standing in for the backlog the request actually waited behind — and
   (b) the batches serialized ahead of it on its own shard, m·maxᵢ sᵢ
   with m the *measured* max batches-seen-while-waiting (the open-loop
   Lemma-2 figure: ~2 when the system keeps up, growing with backlog
   under overload, so the budget tracks the load instead of lying about
   it). An additive maxᵢ sᵢ covers a wait straddling a single batch.
   Same in-expectation caveat as [check]: the factor is a regression
   tripwire, not a theorem. *)
type service_terms = { work_term : int; serial_term : int; slack : int }

let service_terms ~p ~total_work ~per_shard_ops ~per_shard_span ~m =
  if Array.length per_shard_ops <> Array.length per_shard_span then
    invalid_arg "service_budget: per-shard arrays must align";
  let ns_sum = ref 0 and s_max = ref 0 in
  Array.iteri
    (fun i n_i ->
      let s_i = per_shard_span.(i) in
      ns_sum := !ns_sum + (n_i * s_i);
      if s_i > !s_max then s_max := s_i)
    per_shard_ops;
  {
    work_term = (total_work + !ns_sum) / p;
    serial_term = m * !s_max;
    slack = !s_max;
  }

let service_budget ~p ~total_work ~per_shard_ops ~per_shard_span ~m =
  let t = service_terms ~p ~total_work ~per_shard_ops ~per_shard_span ~m in
  max 1 (t.work_term + t.serial_term + t.slack)

let service_check ?(factor = 4.0) ~p ~wait_max ~total_work ~per_shard_ops
    ~per_shard_span ~m () =
  let budget = service_budget ~p ~total_work ~per_shard_ops ~per_shard_span ~m in
  if float_of_int wait_max <= factor *. float_of_int budget then Ok ()
  else
    Error
      (Printf.sprintf
         "service wait bound exceeded: max wait %d > %g x ((W+Σnᵢsᵢ)/P + \
          m·s_max + s_max) = %g (W=%d m=%d P=%d)"
         wait_max factor
         (factor *. float_of_int budget)
         total_work m p)

(* Cross-validate the recorder-derived attribution against the
   simulator's own counters and against the bound's structure. The two
   accountings are produced by disjoint code paths (Work/Steal events
   folded by Obs.Summary vs. the [attribute] counters inside the
   scheduler loop), so agreement here certifies both. *)
let cross_check ?ms_factor ~workload ~metrics ~recorder () =
  let ( let* ) = Result.bind in
  let open Sim.Metrics in
  let* () =
    if Obs.Recorder.enabled recorder then Ok ()
    else Error "cross_check: recorder disabled"
  in
  let a = Obs.Summary.of_recorder recorder in
  let* () =
    Result.map_error (fun e -> "attrib: " ^ e)
      (Obs.Summary.check ~expected:(metrics.p * metrics.makespan) a)
  in
  let eq name got want =
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "attrib %s %d disagrees with sim counter %d" name got
           want)
  in
  let* () = eq "core" a.Obs.Summary.total.core metrics.core_work in
  let* () = eq "batch" a.Obs.Summary.total.batch metrics.batch_work in
  let* () = eq "setup" a.Obs.Summary.total.setup metrics.setup_work in
  (* Per-shard conservation: fold the recorder's Batch_start/Batch_end
     stream per sid and demand every structure collected exactly the
     ops the workload assigned it (each ds node is batched exactly
     once), batch/setup totals re-sum to the sim counters, and no
     structure was batch-busy longer than the whole run. *)
  let* () =
    let n_per = Sim.Workload.per_structure_nodes workload in
    let k = Array.length n_per in
    let got = Array.make k 0 in
    let batches = ref 0 and ops = ref 0 and setup = ref 0 in
    let bad = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
    Array.iter
      (fun (sa : Obs.Summary.structure_account) ->
        batches := !batches + sa.sa_batches;
        ops := !ops + sa.sa_ops;
        setup := !setup + sa.sa_setup;
        if sa.sa_sid < 0 || sa.sa_sid >= k then
          fail "recorder saw batches for unknown sid %d" sa.sa_sid
        else begin
          got.(sa.sa_sid) <- sa.sa_ops;
          if sa.sa_busy > metrics.makespan then
            fail "sid %d batch-busy %d units exceeds makespan %d" sa.sa_sid
              sa.sa_busy metrics.makespan
        end)
      a.Obs.Summary.per_structure;
    Array.iteri
      (fun sid n_i ->
        if got.(sid) <> n_i then
          fail "per-shard conservation: sid %d collected %d ops, workload assigns %d"
            sid got.(sid) n_i)
      n_per;
    if !batches <> metrics.batches then
      fail "per-shard batches sum %d <> sim counter %d" !batches metrics.batches;
    if !ops <> metrics.batch_size_total then
      fail "per-shard ops sum %d <> sim batch_size_total %d" !ops
        metrics.batch_size_total;
    if !setup <> metrics.setup_work then
      fail "per-shard setup sum %d <> sim setup_work %d" !setup metrics.setup_work;
    match !bad with Some msg -> Error msg | None -> Ok ()
  in
  let* () =
    if metrics.span_realized <= metrics.makespan then Ok ()
    else
      Error
        (Printf.sprintf "span_realized %d exceeds makespan %d"
           metrics.span_realized metrics.makespan)
  in
  let* () =
    if a.Obs.Summary.t_inf_witness <= metrics.makespan then Ok ()
    else
      Error
        (Printf.sprintf "critical-path witness %d exceeds makespan %d"
           a.Obs.Summary.t_inf_witness metrics.makespan)
  in
  match ms_factor with
  | None -> Ok ()
  | Some factor ->
      (* The wait bucket is the realized serialized-batch-wait surface.
         A worker is trapped only while some batch runs or launches, so
         the bound pays for its waiting out of the two terms that
         charge for batch execution: the amortized (W(n) + n·s(n))/P
         share when throughput-bound, and m·s(n) (m = DS-depth of the
         core program) when serialization-bound. Same in-expectation
         caveat as [check], hence the caller-chosen factor, and an
         additive s(n) of slack for runs straddling a single batch. *)
      let _, _, n, m = Sim.Workload.core_metrics workload in
      let w = metrics.batch_work + metrics.setup_work in
      let ns_sum, s_max = composed_terms ~workload ~metrics in
      let per_worker_wait =
        float_of_int a.Obs.Summary.total.wait /. float_of_int metrics.p
      in
      let budget =
        factor
        *. ((float_of_int (w + ns_sum) /. float_of_int metrics.p)
           +. float_of_int (m * s_max))
        +. float_of_int s_max
      in
      if per_worker_wait <= budget then Ok ()
      else
        Error
          (Printf.sprintf
             "serialized wait %.0f per worker exceeds %g x ((W+Σnᵢsᵢ)/P + m·s_max) \
              = %.0f (n=%d m=%d s_max=%d)"
             per_worker_wait factor budget n m s_max)
