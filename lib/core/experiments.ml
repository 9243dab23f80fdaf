let default_ps = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let skiplist_workload ~initial ~records_per_node ~n_nodes () =
  Sim.Workload.parallel_ops
    ~model:(Batched.Skiplist.sim_model ~initial_size:initial ~records_per_node ())
    ~records_per_node ~n_nodes ()

let run_batcher ~p ~seed w =
  Sim.Batcher.run { (Sim.Batcher.default ~p) with Sim.Batcher.seed } w

(* ---------- E1: Figure 5 ---------- *)

type fig5_row = {
  initial : int;
  seq_throughput : float;
  batcher : (int * float * float) list;  (* worker count, mean, stddev *)
}

let fig5 ?(n_records = 100_000) ?(records_per_node = 100) ?(ps = default_ps)
    ?(sizes = [ 20_000; 100_000; 1_000_000; 10_000_000; 100_000_000 ]) ?(seed = 1)
    ?seeds () =
  let n_nodes = max 1 (n_records / records_per_node) in
  let seeds =
    match seeds with Some l when l <> [] -> l | _ -> [ seed; seed + 1; seed + 2 ]
  in
  List.map
    (fun initial ->
      (* Every run resets the workload's model, so one workload serves
         SEQ and every (P, seed) run. *)
      let w = skiplist_workload ~initial ~records_per_node ~n_nodes () in
      let seq = Sim.Seqexec.run w in
      let batcher =
        List.map
          (fun p ->
            let tps =
              Array.of_list
                (List.map
                   (fun seed -> Sim.Metrics.throughput (run_batcher ~p ~seed w))
                   seeds)
            in
            (p, Util.Stats.mean tps, Util.Stats.stddev tps))
          ps
      in
      { initial; seq_throughput = Sim.Metrics.throughput seq; batcher })
    sizes

(* ---------- E1 on the real runtime ---------- *)

type fig5_rt_row = {
  rt_initial : int;
  rt_p : int;
  seq_s : float;
  bat_s : float;
  words_per_record : float;
  agree : bool;
}

let fig5_rt_records_per_node = 100

let wall f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9)

(* Minor words allocated by every domain, the joined ones included:
   after a minor collection, [Gc.quick_stat] counts them exactly. *)
let minor_words_all () =
  Gc.minor ();
  (Gc.quick_stat ()).minor_words

let fig5_rt_cell ?(seed = 1) ?probe ~initial ~records ~p () =
  let module Sk = Batched.Skiplist in
  (* The initial keys are even and the fresh ones odd, so every fresh
     key is new to the list (two fresh draws may still coincide). *)
  let rng = Util.Rng.create ~seed in
  let draw () = Util.Rng.int rng (1 lsl 40) in
  let initial_keys = Array.init initial (fun _ -> 2 * draw ()) in
  let fresh = Array.init records (fun _ -> (2 * draw ()) + 1) in
  let build () =
    let sl = Sk.create ~seed () in
    Array.iter (fun k -> ignore (Sk.insert_seq sl k)) initial_keys;
    sl
  in
  let seq_list = build () in
  let (), seq_s =
    wall (fun () -> Array.iter (fun k -> ignore (Sk.insert_seq seq_list k)) fresh)
  in
  let bat_list = build () in
  let per_node = fig5_rt_records_per_node in
  let w0 = minor_words_all () in
  let pool = Runtime.Pool.create ?probe ~num_workers:p () in
  let b =
    Runtime.Batcher_rt.create ~pool ~state:bat_list
      ~run_batch:(fun pool sl batch ->
        Sk.run_batch_with
          ~pfor:(fun n body -> Runtime.Pool.parallel_for pool ~lo:0 ~hi:n body)
          sl
          (Array.concat (Array.to_list batch)))
      ()
  in
  let (), bat_s =
    wall (fun () ->
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0
              ~hi:((records + per_node - 1) / per_node)
              (fun i ->
                let lo = i * per_node in
                Runtime.Batcher_rt.batchify b
                  (Array.init (Int.min per_node (records - lo)) (fun j ->
                       Sk.insert fresh.(lo + j))))))
  in
  Runtime.Pool.teardown pool;
  let words_per_record = (minor_words_all () -. w0) /. float_of_int records in
  let agree =
    (match Sk.check_invariants bat_list with () -> true | exception Failure _ -> false)
    && Sk.to_list bat_list = Sk.to_list seq_list
  in
  { rt_initial = initial; rt_p = p; seq_s; bat_s; words_per_record; agree }

let fig5_sim_workload ~initial ~records =
  skiplist_workload ~initial ~records_per_node:fig5_rt_records_per_node
    ~n_nodes:(max 1 (records / fig5_rt_records_per_node))
    ()

(* The simulator is deterministic, so a first run into one-slot rings
   counts each worker's events (survivors plus dropped), and a second
   run into rings of the largest count keeps them all. *)
let sim_recorded ?(seed = 1) ~p w =
  let record capacity =
    let rc =
      Obs.Recorder.create ~capacity ~clock:Obs.Recorder.Timesteps ~workers:p ()
    in
    let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
    (rc, Sim.Batcher.run ~probe:(Obs.Probe.create ~recorder:rc ()) cfg w)
  in
  let counted, _ = record 1 in
  let events worker =
    Obs.Recorder.length counted ~worker + Obs.Recorder.dropped counted ~worker
  in
  record (List.fold_left max 1 (List.init p events))

(* ---------- Closed loops on both executions ---------- *)

type closed_ds = Counter | Skiplist

type closed = {
  cl_structures : closed_ds list;
  cl_initial : int;
  cl_per_call : int;
  cl_calls : int;
}

let closed_counter ~calls =
  { cl_structures = [ Counter ]; cl_initial = 0; cl_per_call = 1; cl_calls = calls }

let closed_multi ~calls =
  {
    cl_structures = [ Counter; Skiplist ];
    cl_initial = 100_000;
    cl_per_call = 10;
    cl_calls = calls;
  }

let closed_sim c =
  let model = function
    | Counter -> Batched.Counter.sim_model ~records_per_node:c.cl_per_call ()
    | Skiplist ->
        Batched.Skiplist.sim_model ~initial_size:c.cl_initial
          ~records_per_node:c.cl_per_call ()
  in
  Sim.Workload.interleaved_ops
    ~models:(List.map model c.cl_structures)
    ~records_per_node:c.cl_per_call ~n_nodes:c.cl_calls ()

(* One structure, built at once; given its sid and the pool, its
   BATCHIFY of call i's records and the count of records it has
   applied. The skip list starts with the even keys below
   2·[cl_initial], and call i inserts odd keys of its own, each new. *)
let closed_structure ~seed c ds =
  let attach state run_batch record applied ~sid pool =
    let b =
      Runtime.Batcher_rt.create ~sid ~pool ~state
        ~run_batch:(fun pool st batch -> run_batch pool st (Array.concat (Array.to_list batch)))
        ()
    in
    let call i = Array.init c.cl_per_call (fun j -> record ((i * c.cl_per_call) + j)) in
    ((fun i -> Runtime.Batcher_rt.batchify b (call i)), applied)
  in
  match ds with
  | Counter ->
      let st = Batched.Counter.create () in
      attach st
        (fun _pool -> Batched.Counter.run_batch)
        (fun _ -> Batched.Counter.op 1)
        (fun () -> Batched.Counter.value st)
  | Skiplist ->
      let sl = Batched.Skiplist.create ~seed () in
      for k = 0 to c.cl_initial - 1 do
        ignore (Batched.Skiplist.insert_seq sl (2 * k))
      done;
      attach sl
        (fun pool ->
          Batched.Skiplist.run_batch_with ~pfor:(fun n body ->
              Runtime.Pool.parallel_for pool ~lo:0 ~hi:n body))
        (fun r -> Batched.Skiplist.insert ((2 * r) + 1))
        (fun () -> Batched.Skiplist.length sl - c.cl_initial)

(* The structures are built before the pool, whose workers' recorded
   spans start when they are spawned. *)
let closed_rt ?(seed = 1) ?probe ~p c =
  let structures = List.map (closed_structure ~seed c) c.cl_structures in
  let pool = Runtime.Pool.create ?probe ~num_workers:p () in
  let legs = Array.of_list (List.mapi (fun sid attach -> attach ~sid pool) structures) in
  let k = Array.length legs in
  let (), wall_s =
    wall (fun () ->
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:c.cl_calls (fun i ->
                fst legs.(i mod k) i)))
  in
  Runtime.Pool.teardown pool;
  (Array.map (fun (_, applied) -> applied ()) legs, wall_s)

(* ---------- M3: shard scaling on the runtime ---------- *)

type shard_row = {
  sk_shards : int;
  sk_workers : int;
  sk_ops : int;
  sk_ns : int;
  sk_cv : float;
  sk_batches : int;
  sk_max_batch : int;
  sk_agree : bool;
}

let shard_scaling_workers = 2
let shard_scaling_reps = 8
let shard_scaling_service_s = 0.001

(* The BOP of a structure with linear service: at 1/K of the keyspace a
   batch costs s(n/K) = 1 ms / K, a sleep ahead of a real counter BOP
   so that every op is still counted. *)
let shard_cell ~ops shards =
  let pool = Runtime.Pool.create ~num_workers:shard_scaling_workers () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let service = shard_scaling_service_s /. float_of_int shards in
      let rt =
        Runtime.Shard_rt.create ~pool ~shards
          ~state:(fun _ -> Batched.Counter.create ())
          ~run_batch:(fun _pool st batch ->
            Unix.sleepf service;
            Batched.Counter.run_batch st batch)
          ()
      in
      let submitted = ref 0 in
      let submit_all n =
        submitted := !submitted + n;
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                Runtime.Shard_rt.batchify rt
                  ~shard:(Batched.Shard.route ~shards i)
                  (Batched.Counter.op 1)))
      in
      submit_all (Int.min 64 ops);
      let samples =
        Array.init shard_scaling_reps (fun _ ->
            let t0 = Obs.Clock.now_ns () in
            submit_all ops;
            float_of_int (Obs.Clock.now_ns () - t0))
      in
      let t = Util.Stats.summarize samples in
      let counted = ref 0 in
      for i = 0 to shards - 1 do
        counted := !counted + Batched.Counter.value (Runtime.Shard_rt.state rt i)
      done;
      let st = Runtime.Shard_rt.total_stats rt in
      {
        sk_shards = shards;
        sk_workers = shard_scaling_workers;
        sk_ops = ops;
        sk_ns = int_of_float t.Util.Stats.min;
        sk_cv = t.Util.Stats.stddev /. t.Util.Stats.mean;
        sk_batches = st.Runtime.Batcher_rt.batches;
        sk_max_batch = st.Runtime.Batcher_rt.max_batch;
        sk_agree = !counted = !submitted;
      })

let shard_scaling ?(ops = 384) () =
  if ops < 1 then invalid_arg "Experiments.shard_scaling: ops < 1";
  List.map (shard_cell ~ops) [ 1; 2; 4; 8 ]

(* ---------- E2: flat combining ---------- *)

type flatcomb_row = {
  fc_p : int;
  batcher_tp : float;
  flatcomb_tp : float;
  seq_tp : float;
}

let flatcomb ?(initial = 1_000_000) ?(n_records = 100_000) ?(records_per_node = 100)
    ?(ps = default_ps) ?(seed = 1) () =
  let n_nodes = max 1 (n_records / records_per_node) in
  let mk () = skiplist_workload ~initial ~records_per_node ~n_nodes () in
  let seq_tp = Sim.Metrics.throughput (Sim.Seqexec.run (mk ())) in
  List.map
    (fun p ->
      let b = run_batcher ~p ~seed (mk ()) in
      let fc = Sim.Flatcomb.run ~seed ~p (mk ()) in
      {
        fc_p = p;
        batcher_tp = Sim.Metrics.throughput b;
        flatcomb_tp = Sim.Metrics.throughput fc;
        seq_tp;
      })
    ps

(* ---------- E3/E4/E5: the Section 3 examples ---------- *)

type example_row = {
  ex_p : int;
  batcher_makespan : int;
  lock_makespan : int;
  cas_makespan : int;
  seq_makespan : int;
  bound_ratio : float;
}

let example_ps = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

let example_rows ~mk ~bounds ~ps ~seed () =
  List.map
    (fun p ->
      let w = mk () in
      let t1, t_inf, n_ops, m = Sim.Workload.core_metrics w in
      let n_records = Sim.Workload.total_records w in
      let b = run_batcher ~p ~seed w in
      let lock = Sim.Lockconc.run { (Sim.Lockconc.default ~p) with Sim.Lockconc.seed } w in
      let cas =
        Sim.Lockconc.run
          { (Sim.Lockconc.default ~p) with Sim.Lockconc.seed; contention = true }
          w
      in
      let seq = Sim.Seqexec.run w in
      let predicted = Theory.predict bounds ~p ~t1 ~t_inf ~n_ops ~m ~n_records in
      {
        ex_p = p;
        batcher_makespan = b.Sim.Metrics.makespan;
        lock_makespan = lock.Sim.Metrics.makespan;
        cas_makespan = cas.Sim.Metrics.makespan;
        seq_makespan = seq.Sim.Metrics.makespan;
        bound_ratio = float_of_int b.Sim.Metrics.makespan /. float_of_int predicted;
      })
    ps

let counter_example ?(n = 20_000) ?(ps = example_ps) ?(seed = 1) () =
  let mk () =
    Sim.Workload.parallel_ops
      ~model:(Batched.Counter.sim_model ())
      ~records_per_node:1 ~n_nodes:n ()
  in
  example_rows ~mk ~bounds:(Theory.counter_example ~records_per_node:1) ~ps ~seed ()

let tree_example ?(initial = 65_536) ?(n = 5_000) ?(ps = example_ps) ?(seed = 1) () =
  let mk () =
    Sim.Workload.parallel_ops
      ~model:(Batched.Two_three.sim_model ~initial_size:initial ())
      ~records_per_node:1 ~n_nodes:n ()
  in
  example_rows ~mk
    ~bounds:(Theory.search_tree_example ~initial ~records_per_node:1)
    ~ps ~seed ()

let stack_example ?(n = 20_000) ?(ps = example_ps) ?(seed = 1) () =
  let mk () =
    Sim.Workload.parallel_ops
      ~model:(Batched.Stack.sim_model ())
      ~records_per_node:1 ~n_nodes:n ()
  in
  example_rows ~mk ~bounds:(Theory.stack_example ~records_per_node:1) ~ps ~seed ()

(* ---------- E6: Theorem 1 validation sweep ---------- *)

type theory_row = {
  th_ds : string;
  th_workload : string;
  th_p : int;
  measured : int;
  predicted : int;
  ratio : float;
}

let theory_table ?(seed = 1) () =
  let structures =
    [
      ( "counter",
        (fun () -> Batched.Counter.sim_model ()),
        Theory.counter_example ~records_per_node:1 );
      ( "skiplist",
        (fun () -> Batched.Skiplist.sim_model ~initial_size:65_536 ()),
        Theory.skiplist_example ~initial:65_536 ~records_per_node:1 );
      ( "two_three",
        (fun () -> Batched.Two_three.sim_model ~initial_size:65_536 ()),
        Theory.search_tree_example ~initial:65_536 ~records_per_node:1 );
      ( "stack",
        (fun () -> Batched.Stack.sim_model ()),
        Theory.stack_example ~records_per_node:1 );
      ( "ostree",
        (fun () -> Batched.Ostree.sim_model ~initial_size:65_536 ()),
        Theory.ostree_example ~initial:65_536 ~records_per_node:1 );
      ( "sp_order",
        (fun () -> Batched.Sp_order.sim_model ()),
        Theory.sp_order_example ~records_per_node:1 );
      ( "hashtable",
        (fun () -> Batched.Hashtable.sim_model ()),
        Theory.hashtable_example ~records_per_node:1 );
    ]
  in
  let workloads =
    [
      ( "parallel(n=2000)",
        fun model ->
          Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes:2000 () );
      ( "chains(m=50,w=8)",
        fun model ->
          Sim.Workload.chained_ops ~model ~records_per_node:1 ~chain_length:50 ~width:8 () );
    ]
  in
  List.concat_map
    (fun (ds, mk_model, bounds) ->
      List.concat_map
        (fun (wname, mk_w) ->
          List.map
            (fun p ->
              let w = mk_w (mk_model ()) in
              let t1, t_inf, n_ops, m = Sim.Workload.core_metrics w in
              let n_records = Sim.Workload.total_records w in
              let metrics = run_batcher ~p ~seed w in
              let predicted =
                Theory.predict bounds ~p ~t1 ~t_inf ~n_ops ~m ~n_records
              in
              {
                th_ds = ds;
                th_workload = wname;
                th_p = p;
                measured = metrics.Sim.Metrics.makespan;
                predicted;
                ratio = float_of_int metrics.Sim.Metrics.makespan /. float_of_int predicted;
              })
            [ 1; 2; 4; 8; 16 ])
        workloads)
    structures

(* ---------- E8: Theorem 3 (tau-trimmed span) ---------- *)

type tau_row = {
  t3_p : int;
  t3_tau : int;
  t3_long_batches : int;
  t3_trimmed_span : int;
  t3_measured : int;
  t3_predicted : int;
  t3_ratio : float;
}

let theorem3 ?(seed = 1) () =
  (* Skip-list workload with multi-record nodes so batch spans vary
     enough for tau to bite. W(n) and S_tau(n) are taken from the
     measured batch log rather than a model formula -- the purest
     reading of Theorem 3. *)
  List.concat_map
    (fun p ->
      let w = skiplist_workload ~initial:100_000 ~records_per_node:20 ~n_nodes:1000 () in
      let t1, t_inf, n_ops, m = Sim.Workload.core_metrics w in
      let metrics = run_batcher ~p ~seed w in
      let measured_w = metrics.Sim.Metrics.batch_work in
      let lg_p = Theory.log2i p in
      let max_span =
        List.fold_left
          (fun acc (d : Sim.Metrics.batch_detail) -> max acc d.Sim.Metrics.bd_span)
          1 metrics.Sim.Metrics.batch_details
      in
      let taus =
        List.sort_uniq compare
          [ max 1 lg_p; 2 * lg_p; 4 * lg_p; max_span / 2; max_span; 2 * max_span ]
        |> List.filter (fun t -> t >= 1)
      in
      List.map
        (fun tau ->
          let s_tau = Sim.Metrics.trimmed_span ~tau metrics in
          let predicted =
            Theory.batcher_bound_tau ~p ~t1 ~t_inf ~n:n_ops ~m ~w:measured_w ~s_tau ~tau
          in
          {
            t3_p = p;
            t3_tau = tau;
            t3_long_batches = Sim.Metrics.count_long ~tau metrics;
            t3_trimmed_span = s_tau;
            t3_measured = metrics.Sim.Metrics.makespan;
            t3_predicted = predicted;
            t3_ratio = float_of_int metrics.Sim.Metrics.makespan /. float_of_int predicted;
          })
        taus)
    [ 2; 4; 8; 16 ]

(* ---------- E7: Lemma 2 ---------- *)

type lemma2_row = {
  l2_workload : string;
  l2_p : int;
  max_trapped_batches : int;
}

let lemma2 ?(seed = 1) () =
  let workloads =
    [
      ( "counter parallel",
        fun () ->
          Sim.Workload.parallel_ops
            ~model:(Batched.Counter.sim_model ())
            ~records_per_node:1 ~n_nodes:2000 () );
      ( "skiplist parallel",
        fun () -> skiplist_workload ~initial:100_000 ~records_per_node:10 ~n_nodes:500 () );
      ( "skiplist chains",
        fun () ->
          Sim.Workload.chained_ops
            ~model:(Batched.Skiplist.sim_model ~initial_size:100_000 ())
            ~records_per_node:1 ~chain_length:40 ~width:8 () );
    ]
  in
  List.concat_map
    (fun (name, mk) ->
      List.map
        (fun p ->
          let m = run_batcher ~p ~seed (mk ()) in
          {
            l2_workload = name;
            l2_p = p;
            max_trapped_batches = m.Sim.Metrics.max_batches_while_pending;
          })
        [ 1; 2; 4; 8; 16 ])
    workloads

(* ---------- A1/A2/A3: ablations ---------- *)

type ablation_row = {
  ab_variant : string;
  ab_p : int;
  ab_makespan : int;
  ab_steals : int;
  ab_batches : int;
}

let ablation_workload () = skiplist_workload ~initial:1_000_000 ~records_per_node:10 ~n_nodes:1000 ()

let run_ablation ~variant ~seed cfg =
  let m = Sim.Batcher.run cfg (ablation_workload ()) in
  ignore seed;
  {
    ab_variant = variant;
    ab_p = cfg.Sim.Batcher.p;
    ab_makespan = m.Sim.Metrics.makespan;
    ab_steals = m.Sim.Metrics.steal_attempts;
    ab_batches = m.Sim.Metrics.batches;
  }

let ablate_steal ?(seed = 1) () =
  List.concat_map
    (fun p ->
      List.map
        (fun (variant, policy) ->
          run_ablation ~variant ~seed
            { (Sim.Batcher.default ~p) with Sim.Batcher.seed; steal_policy = policy })
        [
          ("alternating", Sim.Batcher.Alternating);
          ("core-only", Sim.Batcher.Core_only);
          ("batch-only", Sim.Batcher.Batch_only);
          ("uniform", Sim.Batcher.Uniform_random);
        ])
    [ 2; 4; 8 ]

let ablate_launch ?(seed = 1) () =
  List.concat_map
    (fun p ->
      List.map
        (fun threshold ->
          run_ablation
            ~variant:(Printf.sprintf "threshold=%d" threshold)
            ~seed
            { (Sim.Batcher.default ~p) with Sim.Batcher.seed; launch_threshold = threshold })
        (List.sort_uniq compare [ 1; max 1 (p / 4); max 1 (p / 2); p ]))
    [ 4; 8 ]

let ablate_cap ?(seed = 1) () =
  List.concat_map
    (fun p ->
      List.map
        (fun cap ->
          run_ablation
            ~variant:(Printf.sprintf "cap=%d" cap)
            ~seed
            { (Sim.Batcher.default ~p) with Sim.Batcher.seed; batch_cap = cap })
        (List.sort_uniq compare [ 1; max 1 (p / 4); max 1 (p / 2); p ]))
    [ 4; 8 ]

let ablate_overhead ?(seed = 1) () =
  List.concat_map
    (fun p ->
      List.map
        (fun (variant, overhead) ->
          run_ablation ~variant ~seed
            { (Sim.Batcher.default ~p) with Sim.Batcher.seed; overhead })
        [
          ("tree-setup", Sim.Batcher.Tree_setup);
          ("fused-setup", Sim.Batcher.Fused_setup);
          ("no-setup", Sim.Batcher.No_setup);
        ])
    [ 2; 4; 8; 16 ]

(* ---------- E9: pthreaded programs (paper conclusion) ---------- *)

type pthread_row = {
  pt_threads : int;
  pt_batcher : int;
  pt_lock : int;
  pt_seq : int;
}

let pthreaded ?(ops_per_thread = 500) ?(seed = 1) () =
  (* threads = workers: static threads over a batched skip list. *)
  List.map
    (fun threads ->
      let mk () =
        Sim.Workload.pthreaded
          ~model:(Batched.Skiplist.sim_model ~initial_size:1_000_000 ~records_per_node:10 ())
          ~records_per_node:10 ~threads ~ops_per_thread ()
      in
      let b = run_batcher ~p:threads ~seed (mk ()) in
      let lock =
        Sim.Lockconc.run { (Sim.Lockconc.default ~p:threads) with Sim.Lockconc.seed } (mk ())
      in
      let seq = Sim.Seqexec.run (mk ()) in
      {
        pt_threads = threads;
        pt_batcher = b.Sim.Metrics.makespan;
        pt_lock = lock.Sim.Metrics.makespan;
        pt_seq = seq.Sim.Metrics.makespan;
      })
    [ 1; 2; 4; 8; 16 ]

(* ---------- E10: several implicitly batched structures at once ---------- *)

type multi_row = {
  mu_p : int;
  mu_batcher : int;
  mu_lock : int;
  mu_seq : int;
  mu_batches : int;
}

let multi_structure ?(n = 2_000) ?(seed = 1) () =
  let mk () =
    Sim.Workload.interleaved_ops
      ~models:
        [ Batched.Counter.sim_model ();
          Batched.Skiplist.sim_model ~initial_size:1_000_000 ();
          Batched.Hashtable.sim_model () ]
      ~records_per_node:1 ~n_nodes:n ()
  in
  List.map
    (fun p ->
      let b = run_batcher ~p ~seed (mk ()) in
      let lock =
        Sim.Lockconc.run { (Sim.Lockconc.default ~p) with Sim.Lockconc.seed } (mk ())
      in
      let seq = Sim.Seqexec.run (mk ()) in
      {
        mu_p = p;
        mu_batcher = b.Sim.Metrics.makespan;
        mu_lock = lock.Sim.Metrics.makespan;
        mu_seq = seq.Sim.Metrics.makespan;
        mu_batches = b.Sim.Metrics.batches;
      })
    [ 1; 2; 4; 8; 16; 32 ]

(* ---------- A5: batching granularity (records per BATCHIFY) ---------- *)

type granularity_row = {
  g_records_per_node : int;
  g_p : int;
  g_throughput : float;
  g_seq_throughput : float;
}

let ablate_granularity ?(initial = 1_000_000) ?(n_records = 100_000) ?(seed = 1) () =
  (* The paper issues 100 records per BATCHIFY "to simulate bigger
     batches"; this sweep shows what that granularity buys: per-record
     scheduler overhead amortizes as records-per-call grow. *)
  List.concat_map
    (fun records_per_node ->
      let n_nodes = max 1 (n_records / records_per_node) in
      let mk () = skiplist_workload ~initial ~records_per_node ~n_nodes () in
      let seq_tp = Sim.Metrics.throughput (Sim.Seqexec.run (mk ())) in
      List.map
        (fun p ->
          let m = run_batcher ~p ~seed (mk ()) in
          {
            g_records_per_node = records_per_node;
            g_p = p;
            g_throughput = Sim.Metrics.throughput m;
            g_seq_throughput = seq_tp;
          })
        [ 1; 4; 8 ])
    [ 1; 10; 100; 1000 ]
