(* The four end-to-end workloads. Each runs untraced, through public
   APIs only, on pools of two workers, sized for a two-core host. A
   workload repeats its unit of work until its time budget is spent (and
   at least [min_reps] times), checks every output it can, and reports
   each end-to-end metric as per-rep samples. *)

type sizes = {
  seconds : float;  (* wall budget of one workload's measured loop *)
  min_reps : int;
  closed_keys : int;  (* key space; its even half is prepopulated *)
  closed_ops : int;  (* timed batchify calls per rep *)
  closed_warmup : int;
  open_keys : int;
  open_run_s : float;  (* one fixed-rate rep *)
  probe_s : float;  (* one capacity probe *)
  probe_steps : int;
  sim_requests : int;  (* Sim_driver requests per rep *)
  fig5_initial : int;  (* Figure-5 cell: initial list size *)
  fig5_records : int;
  unit_ops : int;  (* ops per unit-cost sample of the per-layer suite *)
  wakes : int;  (* wake-up samples per idle pattern *)
}

let full ~seconds =
  {
    seconds;
    min_reps = 3;
    closed_keys = 1_000_000;
    closed_ops = 200_000;
    closed_warmup = 10_000;
    open_keys = 1_000_000;
    open_run_s = 0.5;
    probe_s = 2.0;
    probe_steps = 5;
    sim_requests = 250_000;
    fig5_initial = 1_000_000;
    fig5_records = 100_000;
    unit_ops = 100_000;
    wakes = 100;
  }

let quick =
  {
    seconds = 0.5;
    min_reps = 2;
    closed_keys = 100_000;
    closed_ops = 20_000;
    closed_warmup = 1_000;
    open_keys = 100_000;
    open_run_s = 0.3;
    probe_s = 0.3;
    probe_steps = 2;
    sim_requests = 20_000;
    fig5_initial = 20_000;
    fig5_records = 10_000;
    unit_ops = 5_000;
    wakes = 20;
  }

let workers = 2

type outcome = {
  metrics : Rules.metric list;
  attempted : int;
  failed : int;
  errors : string list;  (* failed correctness checks *)
  notes : string list;  (* detail lines printed under the workload *)
}

let now_s () = float_of_int (Obs.Clock.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Run [f rep] until [z.seconds] have passed since [since], at least
   [z.min_reps] times. A full major collection before each rep keeps
   the previous rep's garbage out of this rep's timings. *)
let repeat ?(since = now_s ()) z f =
  let rec go i acc =
    if i >= z.min_reps && now_s () -. since >= z.seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (i + 1) (f i :: acc)
    end
  in
  go 0 []

let metric name unit_ better bound values =
  { Rules.name; unit_; better; bound = Some bound; values }

(* The end-to-end metrics. The bounds must match BENCHMARK.json. *)
let throughput = metric "throughput_ops_s" "1/s" Rules.Higher 0.25
let p50 = metric "p50_us" "us" Rules.Lower 0.25
let setup = metric "setup_s" "s" Rules.Lower 0.25

let percentile_int a q =
  let f = Array.map float_of_int a in
  Array.sort compare f;
  Util.Stats.percentile f q

let check name ok errors = if ok then errors else name :: errors

(* ---------- closed-skiplist ---------- *)

(* The skip list's BOP exactly as Svc.Store.skiplist runs it: searches
   under Pool.parallel_for, splices sequentially. *)
let skiplist_bop pool sl ops =
  Batched.Skiplist.run_batch_with
    ~pfor:(fun count body -> Runtime.Pool.parallel_for pool ~lo:0 ~hi:count body)
    sl ops

type closed_rep = {
  c_setup : float;
  c_ops_s : float;
  c_p50_us : float;
  c_stats : Runtime.Batcher_rt.stats;
  c_submitted : int;
  c_completed : int;
  c_errors : string list;
}

(* One rep: a fresh two-worker pool and a list holding the even keys of
   [0, keys), then a grain-1 parallel_for of batchify calls (25% insert
   / 75% mem over uniform keys), warm-up first. The list must end holding
   exactly the oracle's keys: the prepopulated even keys plus every
   inserted key. *)
let closed_rep ~keys ~ops ~warmup ~seed ~towers =
  let t0 = now_s () in
  let pool = Runtime.Pool.create ~num_workers:workers () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.teardown pool) @@ fun () ->
  let sl = Batched.Skiplist.create ~seed () in
  let k = ref 0 in
  while !k < keys do
    ignore (Batched.Skiplist.insert_seq sl !k);
    k := !k + 2
  done;
  let rng = Util.Rng.create ~seed in
  let n = warmup + ops in
  let key = Array.init n (fun _ -> Util.Rng.int rng keys) in
  let is_insert = Array.init n (fun _ -> Util.Rng.int rng 4 = 0) in
  let record i =
    if is_insert.(i) then Batched.Skiplist.insert key.(i)
    else Batched.Skiplist.mem key.(i)
  in
  let recs = Array.init n record in
  let b =
    Runtime.Batcher_rt.create ~pool ~state:sl ~run_batch:skiplist_bop ()
  in
  let run lo hi =
    Runtime.Pool.run pool (fun () ->
        Runtime.Pool.parallel_for pool ~grain:1 ~lo ~hi (fun i ->
            Runtime.Batcher_rt.batchify b recs.(i)))
  in
  let c_setup = now_s () -. t0 in
  run 0 warmup;
  let (), dt = timed (fun () -> run warmup n) in
  (* The same calls issued by one caller, one at a time, through a
     one-worker pool over the same list: the latency of a batchify that
     has the runtime to itself (submit, launch, BOP, resume). Under the
     parallel loop a call's blocking time is mostly the backlog of
     suspended callers, which the throughput already prices; one worker
     keeps a second domain's wake-ups out of the number. *)
  let solo = Array.init (min ops 20_000) (fun i -> record (warmup + i)) in
  let lat = Array.make (Array.length solo) 0 in
  let solo_pool = Runtime.Pool.create ~num_workers:1 () in
  let solo_done =
    Fun.protect ~finally:(fun () -> Runtime.Pool.teardown solo_pool) (fun () ->
        let b1 =
          Runtime.Batcher_rt.create ~pool:solo_pool ~state:sl
            ~run_batch:skiplist_bop ()
        in
        Runtime.Pool.run solo_pool (fun () ->
            Array.iteri
              (fun i op ->
                let t = Obs.Clock.now_ns () in
                Runtime.Batcher_rt.batchify b1 op;
                lat.(i) <- Obs.Clock.now_ns () - t)
              solo);
        (Runtime.Batcher_rt.stats b1).ops)
  in
  let inserted = Array.make keys false in
  Array.iteri (fun i k -> if is_insert.(i) then inserted.(k) <- true) key;
  let present k = k mod 2 = 0 || inserted.(k) in
  let oracle = List.filter present (List.init keys Fun.id) in
  (* A mem of a key that no op of this rep inserts has a fixed answer;
     exactly one insert of each new key reports it new. *)
  let reported_new = ref 0 and bad_mem = ref 0 in
  Array.iter
    (function
      | Batched.Skiplist.Insert r -> if r.inserted then incr reported_new
      | Batched.Skiplist.Mem r ->
          if (r.mem_key mod 2 = 0 || not inserted.(r.mem_key))
             && r.found <> present r.mem_key
          then incr bad_mem
      | _ -> ())
    recs;
  let st = Runtime.Batcher_rt.stats b in
  (* check_invariants also audits the towers, but it is quadratic in the
     list size, so only small reps ask for it. *)
  let invariants () =
    match Batched.Skiplist.check_invariants sl with
    | () -> true
    | exception Failure _ -> false
  in
  let errors =
    []
    |> check "closed-skiplist: check_invariants" ((not towers) || invariants ())
    |> check "closed-skiplist: final keys = oracle set"
         (Batched.Skiplist.length sl = List.length oracle
         && Batched.Skiplist.to_list sl = oracle)
    |> check "closed-skiplist: stats.ops = submitted" (st.ops = n)
    |> check "closed-skiplist: one insert reports each new key"
         (!reported_new = List.length oracle - ((keys + 1) / 2))
    |> check "closed-skiplist: mem answers match the oracle" (!bad_mem = 0)
  in
  {
    c_setup;
    c_ops_s = float_of_int ops /. dt;
    c_p50_us = percentile_int lat 0.5 /. 1e3;
    c_stats = st;
    c_submitted = n + Array.length solo;
    c_completed = st.ops + solo_done;
    c_errors = errors;
  }

(* Timed reps at full size, then one small rep whose list is small
   enough for the quadratic tower audit. *)
let closed_skiplist z ~seed =
  let reps =
    repeat z (fun i ->
        closed_rep ~keys:z.closed_keys ~ops:z.closed_ops ~warmup:z.closed_warmup
          ~seed:(seed + i) ~towers:false)
  in
  let audit = closed_rep ~keys:4096 ~ops:4096 ~warmup:0 ~seed ~towers:true in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let batches = sum (fun r -> r.c_stats.batches)
  and ops = sum (fun r -> r.c_stats.ops)
  and ovf = sum (fun r -> r.c_stats.ovf) in
  let runs = audit :: reps in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  {
    metrics =
      [
        throughput (List.map (fun r -> r.c_ops_s) reps);
        p50 (List.map (fun r -> r.c_p50_us) reps);
        setup (List.map (fun r -> r.c_setup) reps);
      ];
    attempted = total (fun r -> r.c_submitted);
    failed = total (fun r -> r.c_submitted - r.c_completed);
    errors = List.sort_uniq compare (List.concat_map (fun r -> r.c_errors) runs);
    notes =
      [
        Printf.sprintf "%d reps x %d timed ops, %d warm-up, %d keys prepopulated"
          (List.length reps) z.closed_ops z.closed_warmup (z.closed_keys / 2);
        Printf.sprintf "batches %d, mean batch %.3f, overflowed %.3f of ops"
          batches
          (float_of_int ops /. float_of_int (max 1 batches))
          (float_of_int ovf /. float_of_int (max 1 ops));
      ];
  }

(* ---------- open-read / open-write ---------- *)

type open_spec = {
  o_name : string;
  shards : int;
  rate : float;  (* the fixed offered rate of the latency reps *)
  bracket : float * float;  (* capacity bisection bracket, req/s *)
  scenario : seed:int -> n_keys:int -> rate:float -> Svc.Scenario.t;
}

let standard () =
  match Svc.Scenario.find "standard" with
  | Some sc -> sc
  | None -> failwith "ledger: Svc.Scenario has no \"standard\" scenario"

(* The standard scenario (skiplist, Zipf 0.99, default mix) without
   bursts, on one shard. *)
let open_read =
  {
    o_name = "open-read";
    shards = 1;
    rate = 60_000.0;
    bracket = (100_000.0, 400_000.0);
    scenario =
      (fun ~seed ~n_keys ~rate ->
        {
          (standard ()) with
          Svc.Scenario.name = "open-read";
          burst = None;
          rt_rate = rate;
          seed;
          n_keys;
          rt_keys_cap = n_keys;
          rt_shards = [ 1 ];
        });
  }

(* A hashtable behind two shards, uniform keys, 50 get / 40 put / 10
   delete: writes beside reads on a different BOP, and table growth. *)
let open_write =
  {
    o_name = "open-write";
    shards = 2;
    rate = 60_000.0;
    bracket = (200_000.0, 600_000.0);
    scenario =
      (fun ~seed ~n_keys ~rate ->
        {
          (standard ()) with
          Svc.Scenario.name = "open-write";
          store = Svc.Store.hashtable;
          theta = 0.0;
          mix = { Svc.Gen.get = 0.5; put = 0.4; delete = 0.1; range = 0.0 };
          burst = None;
          locality = 0.0;
          range_width = 0;
          rt_rate = rate;
          seed;
          n_keys;
          rt_keys_cap = n_keys;
          rt_shards = [ 2 ];
        });
  }

type open_run = {
  pt : Svc.Rt_driver.point;
  o_setup : float;  (* run_point wall time minus elapsed_ns *)
  offered : float;  (* scheduled requests / duration *)
  drain_lag_s : float;  (* elapsed - duration *)
  completed : int;
  p50_us : float;
  p99_ms : float;
  o_errors : string list;
}

(* One timed run through Rt_driver.run_point; every scheduled request
   must complete. The drain lag is measured past the end of the run
   rather than past the last scheduled arrival, which is stricter by
   less than one inter-arrival gap. *)
let run_open ?(trace = false) spec ~seed ~n_keys ~rate ~duration_s =
  let sc = spec.scenario ~seed ~n_keys ~rate in
  let pt, wall =
    timed (fun () ->
        Svc.Rt_driver.run_point ~workers ~duration_s ~trace sc
          ~shards:spec.shards)
  in
  let all = Svc.Latency.all_of pt.classes in
  {
    pt;
    o_setup = wall -. (pt.elapsed_ns /. 1e9);
    offered = float_of_int pt.requests /. duration_s;
    drain_lag_s = (pt.elapsed_ns /. 1e9) -. duration_s;
    completed = all.requests;
    p50_us = all.p50_ns /. 1e3;
    p99_ms = all.p99_ns /. 1e6;
    o_errors =
      check (spec.o_name ^ ": completed = scheduled") (all.requests = pt.requests) [];
  }

(* A probe keeps up when the backlog drained (the last completion within
   2% of the run after its end) and p99 <= 250 ms. The limit sits above
   the hashtable's resize pause, which puts p99 at 50-110 ms even at
   rates the service keeps up with, so the backlog test decides:
   collapse past the knee is sharp. *)
let kept_up ~duration_s r = r.drain_lag_s <= 0.02 *. duration_s && r.p99_ms <= 250.0

let open_workload spec z ~seed =
  let since = now_s () in
  let probes = ref [] and notes = ref [] in
  let lo, hi = spec.bracket in
  let capacity, _ =
    Rules.bisect ~lo ~hi ~steps:z.probe_steps (fun target ->
        let r =
          run_open spec ~seed ~n_keys:z.open_keys ~rate:target
            ~duration_s:z.probe_s
        in
        let ok = kept_up ~duration_s:z.probe_s r in
        probes := r :: !probes;
        notes :=
          Printf.sprintf
            "  probe %.0f: offered %.0f req/s, goodput %.0f req/s, drain lag %.1f ms, p99 %.1f ms: %s"
            target r.offered r.pt.goodput (r.drain_lag_s *. 1e3) r.p99_ms
            (if ok then "kept up" else "fell behind")
          :: !notes;
        (r.offered, ok))
  in
  let reps =
    repeat ~since z (fun _ ->
        run_open spec ~seed ~n_keys:z.open_keys ~rate:spec.rate
          ~duration_s:z.open_run_s)
  in
  let all_runs = !probes @ reps in
  let cap_value, cap_note =
    match capacity with
    | Some c -> (c, Printf.sprintf "capacity %.0f req/s" c)
    | None ->
        (* Report the lowest probed rate: an upper bound on capacity,
           flagged as such. *)
        let lowest =
          List.fold_left (fun acc r -> Float.min acc r.offered) infinity !probes
        in
        (lowest, Printf.sprintf "no probed rate kept up: capacity < %.0f req/s" lowest)
  in
  let attempted = List.fold_left (fun acc r -> acc + r.pt.requests) 0 all_runs in
  let completed = List.fold_left (fun acc r -> acc + r.completed) 0 all_runs in
  {
    metrics =
      [
        (* While the service keeps up, its throughput is the offered
           load: this falls only when it stops keeping up at the fixed
           rate. *)
        throughput (List.map (fun r -> r.pt.goodput) reps);
        p50 (List.map (fun r -> r.p50_us) reps);
        (* Probes generate rate-proportional inputs; the reps all
           build the same ones. *)
        setup (List.map (fun r -> r.o_setup) reps);
        (* Reported, not gated: the knee moves with the host's speed and
           the bisection turns that into whole steps. *)
        { Rules.name = "capacity_req_s"; unit_ = "1/s"; better = Rules.Higher;
          bound = None; values = [ cap_value ] };
      ];
    attempted;
    failed = attempted - completed;
    errors =
      List.sort_uniq compare (List.concat_map (fun r -> r.o_errors) all_runs);
    notes =
      (cap_note :: List.rev !notes)
      @ [
          Printf.sprintf
            "%d reps of %.1f s at %.0f req/s (K=%d); p99 %s us (not gated)"
            (List.length reps) z.open_run_s spec.rate spec.shards
            (String.concat " "
               (List.map (fun r -> Printf.sprintf "%.0f" (r.p99_ms *. 1e3)) reps));
        ];
  }

(* ---------- sim-fig5 ---------- *)

let records_per_node = 100

(* One Figure-5 DAG: [fig5_records] insertions into a list of
   [fig5_initial], 100 records per BATCHIFY (the paper's parameters). *)
let fig5_dag z =
  Sim.Workload.parallel_ops
    ~model:
      (Batched.Skiplist.sim_model ~initial_size:z.fig5_initial ~records_per_node ())
    ~records_per_node
    ~n_nodes:(z.fig5_records / records_per_node)
    ()

(* The Figure-5 cell at P = 8 through Experiments.fig5: records per
   step, averaged over three seeds derived from [seed]. *)
let fig5_p8 z ~seed =
  match
    Batcher_core.Experiments.fig5 ~n_records:z.fig5_records ~records_per_node
      ~ps:[ 8 ] ~sizes:[ z.fig5_initial ] ~seed ()
  with
  | [ { Batcher_core.Experiments.batcher = [ (8, m, _) ]; _ } ] -> m
  | _ -> nan

type sim_rep = {
  s_setup : float;
  fig5_s : float;  (* wall time of the Figure-5 cell *)
  rec_per_step : float;  (* its exact virtual throughput *)
  drv : Svc.Sim_driver.point;
  drv_s : float;  (* wall time of the Sim_driver point *)
}

(* The virtual-clock reproduction: the Figure-5 cell at P = 8 (three
   seeds, as Experiments.fig5 averages them) and the open-loop service
   sim on the standard scenario at P = 8. *)
let sim_fig5 z ~seed =
  let sc =
    { (standard ()) with Svc.Scenario.sim_requests = z.sim_requests; sim_p = [ 8 ]; seed }
  in
  let reps =
    repeat z (fun _ ->
        (* Set-up is building the inputs both drivers build internally:
           the service request stream and the three Figure-5 DAGs. *)
        let (), s_setup =
          timed (fun () ->
              ignore (Svc.Gen.generate_n (Svc.Scenario.gen_sim sc) ~n:z.sim_requests);
              for _ = 1 to 3 do
                ignore (fig5_dag z)
              done)
        in
        let rec_per_step, fig5_s = timed (fun () -> fig5_p8 z ~seed) in
        let drv, drv_s = timed (fun () -> Svc.Sim_driver.run_point sc ~p:8) in
        { s_setup; fig5_s; rec_per_step; drv; drv_s })
  in
  let first = (List.hd reps).rec_per_step in
  let errors =
    []
    |> check "sim-fig5: Figure-5 numbers identical across reps"
         (List.for_all (fun r -> r.rec_per_step = first) reps
         && not (Float.is_nan first))
    |> check "sim-fig5: Theorem-1 bound holds at every Sim_driver point"
         (List.for_all (fun r -> Result.is_ok r.drv.bound) reps)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let attempted = sum (fun r -> r.drv.requests) in
  {
    metrics =
      [
        throughput
          (List.map (fun r -> float_of_int r.drv.requests /. r.drv_s) reps);
        p50 (List.map (fun r -> r.fig5_s *. 1e6) reps);
        setup (List.map (fun r -> r.s_setup) reps);
      ];
    attempted;
    failed = attempted - sum (fun r -> (Svc.Latency.all_of r.drv.classes).requests);
    errors;
    notes =
      [
        Printf.sprintf
          "%d reps; Figure-5 P=8 at %d keys: %.6f records/step (exact); \
           Sim_driver %d requests at P=8"
          (List.length reps) z.fig5_initial first z.sim_requests;
      ];
  }

let all =
  [
    ("closed-skiplist", closed_skiplist);
    ("open-read", open_workload open_read);
    ("open-write", open_workload open_write);
    ("sim-fig5", sim_fig5);
  ]
