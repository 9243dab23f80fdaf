(* The per-layer suite: unit costs timed around calls into each layer's
   public functions, the traced open-loop runs (Rt_driver.run_point
   ~trace:true) with their exact Reqtrace phase means, and the
   reconciliation of those phases against the unit costs. The suite is
   the same whichever workload asks for it. *)

open Workloads

type suite = {
  metrics : Rules.metric list;
  attempted : int;
  failed : int;
  errors : string list;
  reconciliation : (string * row list * float) list;
      (* per open workload: phase rows and the total residual % *)
}

and row = {
  phase : string;
  measured_us : float;
  unit_name : string;
  explained_us : float;
}

let layer name unit_ values =
  { Rules.name; unit_; better = Rules.Lower; bound = None; values }

let layer_hi name unit_ values = { (layer name unit_ values) with better = Rules.Higher }

let reps = 5

(* [reps] samples, one per call of [f]; the suite reports their median. *)
let sample f = List.init reps (fun _ -> f ())

let ns_per ~count f =
  let t0 = Obs.Clock.now_ns () in
  f ();
  float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int count

let with_pool n f =
  let pool = Runtime.Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.teardown pool) (fun () -> f pool)

(* ---------- Wsdeque ---------- *)

(* Owner push then pop in bursts of 512; ns per push+pop pair. *)
let deque_push_pop ~n =
  let q = Runtime.Wsdeque.create () in
  sample (fun () ->
      ns_per ~count:(n / 512 * 512) (fun () ->
          for _ = 1 to n / 512 do
            for i = 1 to 512 do
              Runtime.Wsdeque.push q i
            done;
            for _ = 1 to 512 do
              ignore (Runtime.Wsdeque.pop q)
            done
          done))

(* One thief domain drains what the owner pushed; ns per steal. *)
let deque_steal ~n =
  sample (fun () ->
      let q = Runtime.Wsdeque.create () in
      for i = 1 to n do
        Runtime.Wsdeque.push q i
      done;
      ns_per ~count:n (fun () ->
          let thief =
            Domain.spawn (fun () ->
                let got = ref 0 in
                while !got < n do
                  match Runtime.Wsdeque.steal q with
                  | Some _ -> incr got
                  | None -> Domain.cpu_relax ()
                done)
          in
          Domain.join thief))

(* ---------- Pool ---------- *)

let async_await ~n =
  with_pool 1 (fun pool ->
      sample (fun () ->
          Runtime.Pool.run pool (fun () ->
              ns_per ~count:n (fun () ->
                  for _ = 1 to n do
                    Runtime.Pool.await pool (Runtime.Pool.async pool ignore)
                  done))))

let parallel_for ~n =
  with_pool workers (fun pool ->
      sample (fun () ->
          ns_per ~count:n (fun () ->
              Runtime.Pool.run pool (fun () ->
                  Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n ignore))))

(* Time from async to task start once the pool has idled for [idle ()]
   seconds: worker 0 spins out the idle time, pushes a task and spins on
   (so it cannot run the task itself) until worker 1 has woken, stolen
   and started it. Worker 1's idle policy alone decides the delay. *)
let wake ~idle ~n =
  with_pool workers (fun pool ->
      Runtime.Pool.run pool (fun () ->
          List.init n (fun _ ->
              let until = Obs.Clock.now_ns () + int_of_float (idle () *. 1e9) in
              while Obs.Clock.now_ns () < until do
                Domain.cpu_relax ()
              done;
              let started = Atomic.make 0 in
              let t0 = Obs.Clock.now_ns () in
              let p =
                Runtime.Pool.async pool (fun () ->
                    Atomic.set started (Obs.Clock.now_ns ()))
              in
              while Atomic.get started = 0 do
                Domain.cpu_relax ()
              done;
              Runtime.Pool.await pool p;
              float_of_int (Atomic.get started - t0) /. 1e3)))

(* ---------- Batcher_rt / Shard_rt (one worker, counter BOP) ---------- *)

let counter_bop _pool st ops = Batched.Counter.run_batch st ops

(* M1's shape at one worker: a grain-1 parallel_for of batchify calls.
   Returns ns/op samples and minor words per op (exact: one domain). *)
let submit ~n =
  with_pool 1 (fun pool ->
      let b =
        Runtime.Batcher_rt.create ~pool ~state:(Batched.Counter.create ())
          ~run_batch:counter_bop ()
      in
      let go () =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)))
      in
      go ();
      let w0 = Gc.minor_words () in
      go ();
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      let ns = sample (fun () -> ns_per ~count:n go) in
      let ok =
        Batched.Counter.value (Runtime.Batcher_rt.state b) = n * (2 + reps)
      in
      (ns, words, ok))

let counter_bop_ns ~n =
  let st = Batched.Counter.create () in
  sample (fun () ->
      ns_per ~count:n (fun () ->
          for _ = 1 to n do
            Batched.Counter.run_batch st [| Batched.Counter.op 1 |]
          done))

let shard ~n =
  with_pool 1 (fun pool ->
      let s =
        Runtime.Shard_rt.create ~pool ~shards:2
          ~state:(fun _ -> Batched.Counter.create ())
          ~run_batch:counter_bop ()
      in
      let batchify () =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                Runtime.Shard_rt.batchify s
                  ~shard:(Batched.Shard.route ~shards:2 i)
                  (Batched.Counter.op 1)))
      in
      let scatter () =
        Runtime.Pool.run pool (fun () ->
            for _ = 1 to n do
              Runtime.Shard_rt.scatter s
                [| Batched.Counter.op 1; Batched.Counter.op 1 |]
            done)
      in
      let b = sample (fun () -> ns_per ~count:n batchify) in
      let sc = sample (fun () -> ns_per ~count:n scatter) in
      let total =
        Batched.Counter.value (Runtime.Shard_rt.state s 0)
        + Batched.Counter.value (Runtime.Shard_rt.state s 1)
      in
      (b, sc, total = 3 * n * reps))

(* ---------- BOPs, sequential, per batch size ---------- *)

let skiplist_costs z ~seed ~n =
  let sl = Batched.Skiplist.create ~seed () in
  let (), prepop =
    timed (fun () ->
        let k = ref 0 in
        while !k < z.closed_keys do
          ignore (Batched.Skiplist.insert_seq sl !k);
          k := !k + 2
        done)
  in
  let rng = Util.Rng.create ~seed in
  let key () = Util.Rng.int rng z.closed_keys in
  let per_op ~b mk =
    sample (fun () ->
        let batches = Array.init (n / b) (fun _ -> Array.init b (fun _ -> mk ())) in
        ns_per ~count:(n / b * b) (fun () ->
            Array.iter (Batched.Skiplist.run_batch sl) batches))
  in
  let mem1 = per_op ~b:1 (fun () -> Batched.Skiplist.mem (key ())) in
  let mem64 = per_op ~b:64 (fun () -> Batched.Skiplist.mem (key ())) in
  let ins1 = per_op ~b:1 (fun () -> Batched.Skiplist.insert (key () lor 1)) in
  (* Level 0 still strictly ascending, with the right size
     (check_invariants would also audit towers, quadratically). *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let keys = Batched.Skiplist.to_list sl in
  let ok = ascending keys && List.length keys = Batched.Skiplist.length sl in
  (mem1, mem64, ins1, prepop, ok)

(* A hashtable at one open-write shard's prepopulated size (the even
   half of the keys, split two ways) sits just under its growth
   threshold: the first fresh inserts grow it. [grow] times that one
   batch; the per-op cost of single-op batches in the 50/40/10 mix is
   timed after it, so no sample straddles a resize. *)
let hashtable_costs z ~seed ~n =
  let rng = Util.Rng.create ~seed in
  let fill () =
    let h = Batched.Hashtable.create () in
    let k = ref 0 in
    while !k < z.open_keys / 2 do
      ignore (Batched.Hashtable.insert_seq h ~key:!k ~value:!k);
      k := !k + 2
    done;
    h
  in
  let grow h =
    let b0 = Batched.Hashtable.buckets h in
    let next = ref (z.open_keys + 1) in
    let rec go () =
      let batch =
        Array.init 64 (fun i -> Batched.Hashtable.insert ~key:(!next + (2 * i)) ~value:0)
      in
      next := !next + 128;
      let (), dt = timed (fun () -> Batched.Hashtable.run_batch h batch) in
      if Batched.Hashtable.buckets h <> b0 then dt *. 1e3 else go ()
    in
    go ()
  in
  let h = fill () in
  let resize_ms = grow h :: List.init 2 (fun _ -> grow (fill ())) in
  let op () =
    let key = Util.Rng.int rng z.open_keys in
    match Util.Rng.int rng 10 with
    | 0 -> Batched.Hashtable.remove key
    | 1 | 2 | 3 | 4 -> Batched.Hashtable.insert ~key ~value:key
    | _ -> Batched.Hashtable.lookup key
  in
  let op1 =
    sample (fun () ->
        let ops = Array.init n (fun _ -> op ()) in
        ns_per ~count:n (fun () ->
            Array.iter (fun o -> Batched.Hashtable.run_batch h [| o |]) ops))
  in
  let ok =
    match Batched.Hashtable.check_invariants h with
    | () -> true
    | exception Failure _ -> false
  in
  (op1, resize_ms, ok)

(* ---------- generator and simulators ---------- *)

let gen_ns z ~seed ~n =
  let sc = open_read.scenario ~seed ~n_keys:z.open_keys ~rate:open_read.rate in
  sample (fun () ->
      ns_per ~count:n (fun () ->
          ignore (Svc.Gen.generate_n (Svc.Scenario.gen_rt sc) ~n)))

let sim_costs z ~seed =
  let step_ns =
    List.init 3 (fun i ->
        let w = fig5_dag z in
        let m, dt =
          timed (fun () ->
              Sim.Batcher.run { (Sim.Batcher.default ~p:8) with seed = seed + i } w)
        in
        dt *. 1e9 /. float_of_int m.Sim.Metrics.makespan)
  in
  let n = max 10_000 (z.sim_requests / 10) in
  let sc =
    { (standard ()) with Svc.Scenario.sim_requests = n; sim_p = [ 8 ]; seed }
  in
  let req_ns =
    List.init 3 (fun _ ->
        let pt, dt = timed (fun () -> Svc.Sim_driver.run_point sc ~p:8) in
        dt *. 1e9 /. float_of_int pt.Svc.Sim_driver.requests)
  in
  (step_ns, req_ns, fig5_p8 z ~seed)

(* ---------- traced open-loop runs ---------- *)

type traced = {
  t_metrics : Rules.metric list;
  t_run : open_run;
  t_untraced : open_run;
  t_errors : string list;
  phase_us : (string * float) list;  (* Reqtrace phase means per request *)
  wake_at_rate_us : float;  (* mean wake-up after the workload's gaps *)
}

let traced spec z ~seed =
  (* Wake-ups after the idle gaps the workload's Poisson arrivals leave. *)
  let rng = Util.Rng.create ~seed in
  let wake_us =
    wake ~n:z.wakes ~idle:(fun () ->
        -.Float.log (1.0 -. Util.Rng.float rng 1.0) /. spec.rate)
  in
  let untraced =
    run_open spec ~seed ~n_keys:z.open_keys ~rate:spec.rate
      ~duration_s:z.open_run_s
  in
  let r =
    run_open ~trace:true spec ~seed ~n_keys:z.open_keys ~rate:spec.rate
      ~duration_s:z.open_run_s
  in
  let tr = r.pt.Svc.Rt_driver.trace in
  let t = Obs.Reqtrace.totals tr in
  let mean x = float_of_int x /. float_of_int (max 1 t.n) /. 1e3 in
  (* ovf is left out: at these rates batches are singletons and nothing
     overflows, so it would read 0 on every run. *)
  let phase_us =
    [
      ("queue", mean t.t_queue);
      ("sched", mean t.t_sched);
      ("pending", mean t.t_pending);
      ("exec", mean t.t_exec);
    ]
  in
  let all = Svc.Latency.all_of r.pt.Svc.Rt_driver.classes in
  let name m = spec.o_name ^ "." ^ m in
  let errors =
    (match Obs.Reqtrace.check tr with
    | Ok () -> []
    | Error e -> [ spec.o_name ^ ": Reqtrace.check: " ^ e ])
    @ check (spec.o_name ^ ": every traced request completed")
        (Obs.Reqtrace.completed tr = r.pt.requests) []
    @ r.o_errors @ untraced.o_errors
  in
  {
    t_metrics =
      List.map (fun (ph, us) -> layer (name ("rt." ^ ph ^ "_us")) "us" [ us ]) phase_us
      @ [
          layer (name "pool.wake_us") "us" wake_us;
          layer (name "rt.p99_us") "us" [ all.p99_ns /. 1e3 ];
          layer (name "rt.p999_us") "us" [ all.p999_ns /. 1e3 ];
          layer (name "reqtrace.overhead_pct") "%"
            [ 100.0 *. (r.p50_us -. untraced.p50_us) /. untraced.p50_us ];
        ];
    t_run = r;
    t_untraced = untraced;
    t_errors = errors;
    phase_us;
    wake_at_rate_us = Util.Stats.mean (Array.of_list wake_us);
  }

(* ---------- reconciliation ---------- *)

(* Each traced phase mean beside the unit cost that should explain it:
   exec by the store's single-op BOP times the mean batch, sched by one
   async/await, pending by one submit less its counter BOP, queue by the
   mean wake-up after idle gaps drawn like the workload's inter-arrival
   gaps. The residual is what the unit costs leave unexplained. *)
let reconcile (t : traced) ~bop_name ~bop_us ~unit_of =
  let pt = t.t_run.pt in
  let mean_batch =
    float_of_int pt.Svc.Rt_driver.requests
    /. float_of_int (max 1 pt.Svc.Rt_driver.batches)
  in
  let rows =
    [
      { phase = "queue"; measured_us = List.assoc "queue" t.phase_us;
        unit_name = "mean wake-up after Poisson gaps";
        explained_us = t.wake_at_rate_us };
      { phase = "sched"; measured_us = List.assoc "sched" t.phase_us;
        unit_name = "pool.async_await_ns";
        explained_us = unit_of "pool.async_await_ns" /. 1e3 };
      { phase = "pending"; measured_us = List.assoc "pending" t.phase_us;
        unit_name = "batcher_rt.submit_ns - counter BOP";
        explained_us =
          (unit_of "batcher_rt.submit_ns" -. unit_of "batcher_rt.counter_bop_ns")
          /. 1e3 };
      { phase = "exec"; measured_us = List.assoc "exec" t.phase_us;
        unit_name = Printf.sprintf "%s x mean batch %.2f" bop_name mean_batch;
        explained_us = bop_us *. mean_batch };
    ]
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let m = sum (fun r -> r.measured_us) and e = sum (fun r -> r.explained_us) in
  (rows, 100.0 *. (m -. e) /. m)

let run z ~seed =
  let n = z.unit_ops in
  let push_pop = deque_push_pop ~n:(5 * n) in
  let steal = deque_steal ~n in
  let aa = async_await ~n in
  let pfor = parallel_for ~n in
  let wake_us = wake ~idle:(fun () -> 0.002) ~n:z.wakes in
  let submit_ns, words, submit_ok = submit ~n in
  let bop_ns = counter_bop_ns ~n in
  let shard_b, shard_sc, shard_ok = shard ~n in
  let mem1, mem64, ins1, prepop, sl_ok = skiplist_costs z ~seed ~n:(n / 10) in
  let ht1, resize_ms, ht_ok = hashtable_costs z ~seed ~n:(n / 10) in
  let gen = gen_ns z ~seed ~n:(2 * n) in
  let step_ns, req_ns, fig5 = sim_costs z ~seed in
  let closed =
    closed_rep ~keys:z.closed_keys ~ops:(z.closed_ops / 2) ~warmup:z.closed_warmup
      ~seed ~towers:false
  in
  let tr_read = traced open_read z ~seed in
  let tr_write = traced open_write z ~seed in
  let units =
    [
      layer "wsdeque.push_pop_ns" "ns" push_pop;
      layer "wsdeque.steal_ns" "ns" steal;
      layer "pool.async_await_ns" "ns" aa;
      layer "pool.parallel_for_ns" "ns" pfor;
      layer "pool.wake_us" "us" wake_us;
      layer "batcher_rt.submit_ns" "ns" submit_ns;
      layer "batcher_rt.counter_bop_ns" "ns" bop_ns;
      layer "batcher_rt.words_per_op" "words" [ words ];
      layer_hi "batcher_rt.mean_batch" "count"
        [ float_of_int closed.c_stats.ops /. float_of_int (max 1 closed.c_stats.batches) ];
      layer "batcher_rt.ovf_share" "ratio"
        [ float_of_int closed.c_stats.ovf /. float_of_int (max 1 closed.c_stats.ops) ];
      layer "shard_rt.batchify_ns" "ns" shard_b;
      layer "shard_rt.scatter_ns" "ns" shard_sc;
      layer "skiplist.mem_ns.b1" "ns" mem1;
      layer "skiplist.mem_ns.b64" "ns" mem64;
      layer "skiplist.insert_ns.b1" "ns" ins1;
      layer "skiplist.prepop_s" "s" [ prepop ];
      layer "hashtable.op_ns.b1" "ns" ht1;
      layer "hashtable.resize_ms" "ms" resize_ms;
      layer "gen.ns_per_req" "ns" gen;
      layer "sim.batcher_ns_per_step" "ns" step_ns;
      layer "sim.openloop_ns_per_req" "ns" req_ns;
      layer_hi "sim.fig5_p8_rec_per_step" "records/step" [ fig5 ];
    ]
  in
  let unit_of name =
    match List.find_opt (fun (m : Rules.metric) -> m.name = name) units with
    | Some m -> Rules.median m.values
    | None -> invalid_arg ("unit_of: " ^ name)
  in
  let recon =
    List.map
      (fun (w, t, bop_name) ->
        let rows, residual =
          reconcile t ~bop_name ~bop_us:(unit_of bop_name /. 1e3) ~unit_of
        in
        (w, rows, residual))
      [
        (open_read.o_name, tr_read, "skiplist.mem_ns.b1");
        (open_write.o_name, tr_write, "hashtable.op_ns.b1");
      ]
  in
  let residual_metrics =
    List.map
      (fun (w, _, residual) -> layer (w ^ ".reconcile.residual_pct") "%" [ residual ])
      recon
  in
  let runs =
    [ tr_read.t_run; tr_read.t_untraced; tr_write.t_run; tr_write.t_untraced ]
  in
  let attempted =
    closed.c_submitted
    + List.fold_left (fun acc r -> acc + r.pt.Svc.Rt_driver.requests) 0 runs
  in
  let completed =
    closed.c_completed + List.fold_left (fun acc r -> acc + r.completed) 0 runs
  in
  let errors =
    closed.c_errors @ tr_read.t_errors @ tr_write.t_errors
    |> check "batcher_rt: counter sums every submitted op" submit_ok
    |> check "shard_rt: counters sum every submitted op" shard_ok
    |> check "skiplist: level 0 ascending after unit-cost batches" sl_ok
    |> check "hashtable: check_invariants after unit-cost batches" ht_ok
    |> check "sim: Figure-5 cell computed" (not (Float.is_nan fig5))
  in
  {
    metrics = units @ tr_read.t_metrics @ tr_write.t_metrics @ residual_metrics;
    attempted;
    failed = attempted - completed;
    errors;
    reconciliation = recon;
  }
