type model_kind =
  | Counter
  | Skiplist
  | Stack
  | Fifo
  | Pqueue
  | Hashtable
  | Two_three
  | Ostree
  | Sp_order

type family =
  | Parallel_ops
  | Chained
  | Pthreaded
  | Random_sp
  | Interleaved

type case = {
  family : family;
  model : model_kind;
  size : int;
  records_per_node : int;
  wl_seed : int;
  p : int;
  sim_seed : int;
  shard_k : int;
  steal_policy : Sim.Batcher.steal_policy;
  launch_threshold : int;
  batch_cap : int;
  overhead : Sim.Batcher.overhead_model;
  sequential_batches : bool;
  checkers : bool;
}

let model_of kind ~records_per_node ~seed =
  match kind with
  | Counter -> Batched.Counter.sim_model ~records_per_node ()
  | Skiplist -> Batched.Skiplist.sim_model ~initial_size:1024 ~records_per_node ()
  | Stack -> Batched.Stack.sim_model ~records_per_node ~pop_fraction:0.3 ~seed ()
  | Fifo -> Batched.Fifo.sim_model ~records_per_node ~dequeue_fraction:0.3 ~seed ()
  | Pqueue -> Batched.Pqueue.sim_model ~records_per_node ()
  | Hashtable -> Batched.Hashtable.sim_model ~records_per_node ()
  | Two_three -> Batched.Two_three.sim_model ~initial_size:512 ~records_per_node ()
  | Ostree -> Batched.Ostree.sim_model ~initial_size:512 ~records_per_node ()
  | Sp_order -> Batched.Sp_order.sim_model ()

(* Shard i's cost model: the structure at ~1/K of its full size (the
   bound's s(n/K)), with per-shard seeds so mixed-op models don't run
   identical op sequences on every shard. *)
let shard_model_of kind ~records_per_node ~seed ~shards i =
  let seed = seed + (i * 7919) in
  match kind with
  | Skiplist ->
      Batched.Skiplist.sim_model
        ~initial_size:(max 2 (1024 / shards))
        ~records_per_node ()
  | Two_three ->
      Batched.Two_three.sim_model
        ~initial_size:(max 2 (512 / shards))
        ~records_per_node ()
  | Ostree ->
      Batched.Ostree.sim_model
        ~initial_size:(max 2 (512 / shards))
        ~records_per_node ()
  | kind -> model_of kind ~records_per_node ~seed

let workload_of c =
  if c.shard_k > 1 then
    (* Sharding forces the parallel-loop family: sharded_ops routes each
       node's index through the real Batched.Shard.route, giving K
       structures whose per-shard batch flags the scheduler maintains
       independently. *)
    Sim.Workload.sharded_ops
      ~model_for:
        (shard_model_of c.model ~records_per_node:c.records_per_node
           ~seed:c.wl_seed ~shards:c.shard_k)
      ~shards:c.shard_k ~records_per_node:c.records_per_node ~n_nodes:c.size ()
  else
  let model = model_of c.model ~records_per_node:c.records_per_node ~seed:c.wl_seed in
  let records_per_node = c.records_per_node in
  let rng = Util.Rng.create ~seed:c.wl_seed in
  match c.family with
  | Parallel_ops ->
      Sim.Workload.parallel_ops ~model ~records_per_node ~n_nodes:c.size ()
  | Chained ->
      let width = 1 + Util.Rng.int rng 6 in
      let chain_length = max 1 (c.size / width) in
      Sim.Workload.chained_ops ~model ~records_per_node ~chain_length ~width
        ~between:(Util.Rng.int rng 4) ()
  | Pthreaded ->
      let threads = 1 + Util.Rng.int rng 7 in
      let ops_per_thread = max 1 (c.size / threads) in
      Sim.Workload.pthreaded ~model ~records_per_node ~threads ~ops_per_thread
        ~between:(Util.Rng.int rng 4) ()
  | Random_sp ->
      Sim.Workload.random ~model ~records_per_node ~size:c.size ~seed:c.wl_seed ()
  | Interleaved ->
      let second = Batched.Counter.sim_model ~records_per_node () in
      Sim.Workload.interleaved_ops ~models:[ model; second ] ~records_per_node
        ~n_nodes:c.size ()

let config_of c =
  {
    (Sim.Batcher.default ~p:c.p) with
    Sim.Batcher.seed = c.sim_seed;
    steal_policy = c.steal_policy;
    launch_threshold = c.launch_threshold;
    batch_cap = c.batch_cap;
    overhead = c.overhead;
    sequential_batches = c.sequential_batches;
  }

let is_paper_default c =
  c.steal_policy = Sim.Batcher.Alternating
  && c.launch_threshold = 1
  && c.batch_cap = c.p
  && c.overhead = Sim.Batcher.Tree_setup
  && not c.sequential_batches

(* The fuzzed structure, as a runtime-conformance subject name. *)
let conf_subject_of = function
  | Counter -> "counter"
  | Skiplist -> "skiplist"
  | Stack -> "stack"
  | Fifo -> "fifo"
  | Pqueue -> "pqueue"
  | Hashtable -> "hashtable"
  | Two_three -> "two_three"
  | Ostree -> "ostree"
  | Sp_order -> "sp_order"

let run_case ?(bound_factor = 16.0) ?(rt_conf = false) c =
  let ( let* ) = Result.bind in
  let workload = workload_of c in
  let cfg = config_of c in
  (* Small rings: enough for every fuzz-sized schedule; if a pathological
     case wraps anyway, the exact attribution check is skipped below
     rather than reporting a spurious conservation failure. *)
  let recorder =
    Obs.Recorder.create ~capacity:8192 ~clock:Obs.Recorder.Timesteps
      ~workers:c.p ()
  in
  (* Online checkers ride along when the case draws them; the Lemma-2
     bound is the paper's 2 only on configurations that satisfy its
     preconditions (immediate full-cap launches) — ablations can
     legitimately exceed it, so there it is effectively off. *)
  let lemma2_bound =
    if c.launch_threshold = 1 && c.batch_cap >= c.p then 2 else max_int
  in
  let inv =
    if c.checkers then
      Obs.Invariants.create ~lemma2_bound
        ~structures:(Array.length workload.Sim.Workload.models) ()
    else Obs.Invariants.null
  in
  let* metrics, events =
    let probe = Obs.Probe.create ~recorder ~invariants:inv () in
    match Sim.Batcher.run_traced ~probe cfg workload with
    | result -> Ok result
    | exception Failure e -> Error ("sim invariant: " ^ e)
    | exception Invalid_argument e -> Error ("sim argument: " ^ e)
    | exception e ->
        (* e.g. Assert_failure or array-bounds escapes from a broken
           scheduler — the fuzzer must survive to shrink them *)
        Error ("sim exception: " ^ Printexc.to_string e)
  in
  let open Sim.Metrics in
  let* () =
    if Obs.Invariants.total_violations inv = 0 then Ok ()
    else begin
      let v = Obs.Invariants.violations inv in
      let parts = ref [] in
      Array.iteri
        (fun k n ->
          if n > 0 then
            parts :=
              Printf.sprintf "%s=%d"
                (Obs.Recorder.check_name (Obs.Recorder.check_of_code k))
                n
              :: !parts)
        v;
      Error
        ("online checkers: " ^ String.concat " " (List.rev !parts))
    end
  in
  let n = Dag.ds_count workload.Sim.Workload.core in
  let* () =
    if metrics.batch_size_total = n then Ok ()
    else
      Error
        (Printf.sprintf "conservation: %d ops batched, %d in the DAG"
           metrics.batch_size_total n)
  in
  let* () =
    if metrics.max_batch_size <= c.batch_cap then Ok ()
    else
      Error
        (Printf.sprintf "Invariant 2: batch of %d exceeds cap %d"
           metrics.max_batch_size c.batch_cap)
  in
  let executed = metrics.core_work + metrics.batch_work + metrics.setup_work in
  let* () =
    if executed <= c.p * metrics.makespan then Ok ()
    else
      Error
        (Printf.sprintf "executed %d units in %d steps on %d workers" executed
           metrics.makespan c.p)
  in
  (* The validator's Lemma-2 accounting assumes immediate launches of
     full-cap batches; ablated configurations may legitimately let an
     operation observe more than two batches. *)
  let* () =
    if c.launch_threshold = 1 && c.batch_cap >= c.p then begin
      if metrics.max_batches_while_pending > 2 then
        Error
          (Printf.sprintf "Lemma 2: operation observed %d batches"
             metrics.max_batches_while_pending)
      else
        match Sim.Trace.validate ~p:c.p ~batch_cap:c.batch_cap events with
        | Ok () -> Ok ()
        | Error e -> Error ("trace: " ^ e)
    end
    else Ok ()
  in
  (* Attribution conservation on every fuzzed schedule: buckets must
     sum to exactly P x makespan and agree with the sim's own work
     counters — catches recorder drops and miscounts under every
     ablation, not just paper-default configurations. *)
  let* () =
    if Obs.Recorder.total_dropped recorder > 0 then Ok ()
    else Bound.cross_check ~workload ~metrics ~recorder ()
  in
  let* () =
    if is_paper_default c then
      let* () = Bound.check ~factor:bound_factor ~workload ~metrics () in
      if Obs.Recorder.total_dropped recorder > 0 then Ok ()
      else
        Bound.cross_check ~ms_factor:bound_factor ~workload ~metrics ~recorder ()
    else Ok ()
  in
  (* Optional real-runtime leg: the fuzzed structure and seed through a
     real pool, at the case's shard count when the structure shards,
     checked against the sequential oracle (and the simulator again) by
     [Conformance], under Lemma-2 checkers.
     Off by default — it spawns domains per case — and enabled by the
     fuzz driver and a dedicated test sweep. *)
  if not rt_conf then Ok ()
  else
    let subject = Conformance.find (conf_subject_of c.model) in
    match
      Conformance.run
        ~n_ops:(min (max c.size 8) 48)
        ~seed:c.wl_seed
        ~workers:(min c.p 3)
        ~shards:(if Conformance.shardable subject then max 1 c.shard_k else 1)
        subject
    with
    | Ok _ -> Ok ()
    | Error e -> Error ("runtime conformance: " ^ e)

let case_of_seed ?(max_p = 8) ?(max_size = 60) seed =
  let rng = Util.Rng.create ~seed:(0x5EED + seed) in
  let p = 1 + Util.Rng.int rng max_p in
  let pick arr = arr.(Util.Rng.int rng (Array.length arr)) in
  {
    family = pick [| Parallel_ops; Chained; Pthreaded; Random_sp; Interleaved |];
    model =
      pick
        [|
          Counter; Skiplist; Stack; Fifo; Pqueue; Hashtable; Two_three; Ostree;
          Sp_order;
        |];
    size = 1 + Util.Rng.int rng max_size;
    records_per_node = (if Util.Rng.int rng 4 = 0 then 4 else 1);
    wl_seed = Util.Rng.int rng 1_000_000;
    p;
    sim_seed = Util.Rng.int rng 1_000_000;
    (* Mostly unsharded (family rotation intact), with K=2 and K=4 legs
       so every sweep exercises the sharded per-structure protocol. *)
    shard_k = pick [| 1; 1; 1; 2; 4 |];
    steal_policy =
      pick
        Sim.Batcher.[| Alternating; Alternating; Core_only; Batch_only; Uniform_random |];
    launch_threshold = (if Util.Rng.bool rng then 1 else 1 + Util.Rng.int rng p);
    batch_cap = (if Util.Rng.bool rng then p else 1 + Util.Rng.int rng p);
    overhead = pick Sim.Batcher.[| Tree_setup; Tree_setup; Fused_setup; No_setup |];
    sequential_batches = Util.Rng.int rng 4 = 0;
    (* Five in six: most schedules are audited online, and the rest
       fuzz the null checker's path. Record fields are evaluated right
       to left, so this is the first draw after [p]; changing its width
       would change every later field of most seeds' cases. *)
    checkers = pick [| true; true; true; true; true; false |];
  }

(* Candidate reductions, most aggressive first. Each strictly reduces
   (size, records, p, distance-from-default), so greedy shrinking
   terminates. *)
let shrink_steps c =
  let cands = ref [] in
  let add c' = if c' <> c then cands := c' :: !cands in
  if c.size > 1 then begin
    add { c with size = c.size / 2 };
    add { c with size = c.size - 1 }
  end;
  if c.records_per_node > 1 then add { c with records_per_node = 1 };
  if c.p > 1 then begin
    let clamp p' c' = { c' with p = p'; batch_cap = min c'.batch_cap p';
                        launch_threshold = min c'.launch_threshold p' } in
    add (clamp (c.p / 2) c);
    add (clamp (c.p - 1) c)
  end;
  if c.shard_k > 1 then begin
    add { c with shard_k = 1 };
    add { c with shard_k = c.shard_k / 2 }
  end;
  if c.launch_threshold > 1 then add { c with launch_threshold = 1 };
  if c.batch_cap < c.p then add { c with batch_cap = c.p };
  if c.sequential_batches then add { c with sequential_batches = false };
  if c.overhead <> Sim.Batcher.Tree_setup then
    add { c with overhead = Sim.Batcher.Tree_setup };
  if c.steal_policy <> Sim.Batcher.Alternating then
    add { c with steal_policy = Sim.Batcher.Alternating };
  if c.family <> Parallel_ops then add { c with family = Parallel_ops };
  if c.model <> Counter then add { c with model = Counter };
  if not c.checkers then add { c with checkers = true };
  if c.wl_seed <> 0 then add { c with wl_seed = 0 };
  if c.sim_seed <> 1 then add { c with sim_seed = 1 };
  List.rev !cands

let fails ?bound_factor ?rt_conf c =
  match run_case ?bound_factor ?rt_conf c with Ok () -> false | Error _ -> true

let shrink ?bound_factor ?rt_conf c0 =
  if not (fails ?bound_factor ?rt_conf c0) then c0
  else begin
    let rec go c fuel =
      if fuel = 0 then c
      else
        match List.find_opt (fails ?bound_factor ?rt_conf) (shrink_steps c) with
        | None -> c
        | Some smaller -> go smaller (fuel - 1)
    in
    go c0 200
  end

let family_name = function
  | Parallel_ops -> "Parallel_ops"
  | Chained -> "Chained"
  | Pthreaded -> "Pthreaded"
  | Random_sp -> "Random_sp"
  | Interleaved -> "Interleaved"

let model_name = function
  | Counter -> "Counter"
  | Skiplist -> "Skiplist"
  | Stack -> "Stack"
  | Fifo -> "Fifo"
  | Pqueue -> "Pqueue"
  | Hashtable -> "Hashtable"
  | Two_three -> "Two_three"
  | Ostree -> "Ostree"
  | Sp_order -> "Sp_order"

let policy_name = function
  | Sim.Batcher.Alternating -> "Alternating"
  | Sim.Batcher.Core_only -> "Core_only"
  | Sim.Batcher.Batch_only -> "Batch_only"
  | Sim.Batcher.Uniform_random -> "Uniform_random"

let overhead_name = function
  | Sim.Batcher.Tree_setup -> "Tree_setup"
  | Sim.Batcher.Fused_setup -> "Fused_setup"
  | Sim.Batcher.No_setup -> "No_setup"

let pp_case fmt c =
  Format.fprintf fmt
    "{ family = %s; model = %s; size = %d; records_per_node = %d;@ wl_seed = %d; p \
     = %d; sim_seed = %d; shard_k = %d;@ steal_policy = Sim.Batcher.%s; \
     launch_threshold = %d; batch_cap = %d;@ overhead = Sim.Batcher.%s; \
     sequential_batches = %b;@ checkers = %b }"
    (family_name c.family) (model_name c.model) c.size c.records_per_node c.wl_seed
    c.p c.sim_seed c.shard_k (policy_name c.steal_policy) c.launch_threshold
    c.batch_cap (overhead_name c.overhead) c.sequential_batches
    c.checkers

let show_case c = Format.asprintf "@[<hv 2>%a@]" pp_case c

let to_ocaml c =
  Format.asprintf
    "@[<v>let test_fuzz_repro () =@,\
    \  let case =@,\
    \    Check.Schedule_fuzz.@[<hv 4>%a@]@,\
    \  in@,\
    \  match Check.Schedule_fuzz.run_case case with@,\
    \  | Ok () -> ()@,\
    \  | Error e -> Alcotest.fail e@]"
    pp_case c

type failure = {
  f_case : case;
  f_error : string;
  f_shrunk : case;
  f_shrunk_error : string;
}

let sweep ?bound_factor ?rt_conf ?max_p ?max_size ?(map_case = fun c -> c)
    ?(should_stop = fun () -> false) ?(on_case = fun _ _ -> ()) ~seeds () =
  let run = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
      if not (should_stop ()) then begin
        let c = map_case (case_of_seed ?max_p ?max_size seed) in
        on_case seed c;
        incr run;
        match run_case ?bound_factor ?rt_conf c with
        | Ok () -> ()
        | Error e ->
            let small = shrink ?bound_factor ?rt_conf c in
            let small_err =
              match run_case ?bound_factor ?rt_conf small with
              | Error e' -> e'
              | Ok () -> e (* unreachable: shrink preserves failure *)
            in
            failures :=
              { f_case = c; f_error = e; f_shrunk = small; f_shrunk_error = small_err }
              :: !failures
      end)
    seeds;
  (!run, List.rev !failures)
