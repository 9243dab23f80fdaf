type point = {
  shards : int;
  workers : int;
  requests : int;
  elapsed_ns : float;
  goodput : float;
  classes : Latency.class_stats list;
  batches : int;
  max_batch : int;
  stalls : int;
  slo_burns : int;
  lag_ns : int array;  (* dispatcher lateness per request *)
  trace : Obs.Reqtrace.t;  (* per-request spans; null unless ?trace *)
}

(* The dispatcher releases every due request, then sleeps toward the
   next arrival. Releases can be late by the sleep granularity (~0.1 ms)
   or by a lost OS timeslice — harmless to honesty, because latency is
   measured from the scheduled stamp, so release lag is charged to the
   request, never hidden. [lag] records it per request. The loop holds
   its worker until the last release and never returns to the pool's
   scheduling loop, so it beats for that worker itself; the root task
   may have been stolen, so it asks the pool which worker that is. *)
let dispatch_loop ~hl ~t0 ~arrive_ns ~lag ~release =
  let n = Array.length arrive_ns in
  let worker =
    match Runtime.Pool.worker_index () with Some w -> w | None -> -1
  in
  let i = ref 0 in
  while !i < n do
    Obs.Health.beat hl ~worker;
    let now = Obs.Clock.now_ns () in
    while !i < n && t0 + arrive_ns.(!i) <= now do
      lag.(!i) <- now - (t0 + arrive_ns.(!i));
      release !i;
      incr i
    done;
    if !i < n then begin
      let gap = t0 + arrive_ns.(!i) - Obs.Clock.now_ns () in
      if gap > 100_000 then Unix.sleepf (float_of_int (gap - 50_000) /. 1e9)
      else if gap > 0 then Domain.cpu_relax ()
    end
  done

let run_point ?workers ?snapshot_path ?duration_s ?(trace = false)
    (sc : Scenario.t) ~shards =
  let (module S : Store.STORE) = sc.Scenario.store in
  (* The dispatcher holds one worker for the whole run, so serving
     needs at least one more. *)
  let workers =
    max 2
      (match workers with
      | Some w -> w
      | None -> Domain.recommended_domain_count ())
  in
  let duration_s =
    match duration_s with Some d -> d | None -> sc.Scenario.duration_s
  in
  let n_keys = min sc.Scenario.n_keys sc.Scenario.rt_keys_cap in
  let schedule = Gen.generate (Scenario.gen_rt sc) ~duration_s in
  let n = Gen.length schedule in
  let inv =
    if snapshot_path = None then Obs.Invariants.null
    else Obs.Invariants.create ~structures:shards ()
  in
  let hl = Obs.Health.create ~workers ~structures:shards () in
  (* One token per schedule slot: the request's index keys its span in
     the flat capture arrays. *)
  let lag_ns = Array.make n 0 in
  let rtr =
    if trace then
      Obs.Reqtrace.create ~workers ~classes:Gen.n_classes ~capacity:n ()
    else Obs.Reqtrace.null
  in
  let pool =
    Runtime.Pool.create
      ~probe:(Obs.Probe.create ~invariants:inv ~health:hl ~reqtrace:rtr ())
      ~num_workers:workers ()
  in
  let stores =
    Array.init shards (fun i -> S.create ~seed:sc.Scenario.seed ~shard:i)
  in
  Array.iteri
    (fun i st -> S.prepopulate st ~shards ~shard:i ~n_keys)
    stores;
  let srt =
    Runtime.Shard_rt.create ~pool ~shards
      ~state:(fun i -> stores.(i))
      ~run_batch:S.run_batch ()
  in
  let dispatched = Atomic.make 0 and completed = Atomic.make 0 in
  let t0_ref = ref (Obs.Clock.now_ns ()) in
  (* Per request, by token: its latency. The task that serves a request
     is its slot's only writer, and the array is read only after
     [Pool.run] has awaited every promise. *)
  let lat_ns = Array.make n 0 in
  let elapsed = ref 0 in
  let stop = Atomic.make false in
  let sampler =
    match snapshot_path with
    | None -> None
    | Some path ->
        let extra () =
          let d = Atomic.get dispatched and c = Atomic.get completed in
          let el = Obs.Clock.now_ns () - !t0_ref in
          [
            ("svc_dispatched", Obs.Json.Int d);
            ("svc_completed", Obs.Json.Int c);
            ("svc_queue_depth", Obs.Json.Int (d - c));
            ( "svc_goodput",
              Obs.Json.Float
                (if el > 0 && c > 0 then
                   float_of_int c /. (float_of_int el /. 1e9)
                 else 0.0) );
          ]
        in
        let snap =
          Obs.Snapshot.to_file ~health:hl ~invariants:inv ~extra ~path ()
        in
        Some
          ( snap,
            Domain.spawn (fun () ->
                Obs.Snapshot.every snap ~interval_s:0.1 ~stop:(fun () ->
                    Atomic.get stop)) )
  in
  let finish () =
    Atomic.set stop true;
    Option.iter
      (fun (snap, d) ->
        Domain.join d;
        Obs.Snapshot.close snap)
      sampler;
    Runtime.Pool.teardown pool
  in
  Fun.protect ~finally:finish (fun () ->
      let promises = Array.make n None in
      let serve token () =
        let c = schedule.Gen.cls.(token) in
        (match Runtime.Pool.worker_index () with
        | Some w -> Obs.Reqtrace.on_start rtr ~token ~cls:c ~worker:w
        | None -> Obs.Reqtrace.on_start rtr ~token ~cls:c ~worker:0);
        let op = S.op_of schedule token in
        (match S.plan ~shards op with
        | Batched.Shard.Point s ->
            Runtime.Shard_rt.batchify ~token srt ~shard:s op
        | Batched.Shard.Fanout { sub; merge } ->
            (* One consistent chain per request: the token rides the
               start key's shard; the join over the rest is charged to
               the span's sched_post residual. *)
            Runtime.Shard_rt.scatter ~token
              ~token_shard:
                (Batched.Shard.route ~shards schedule.Gen.key.(token))
              srt sub;
            merge ());
        lat_ns.(token) <-
          Obs.Clock.now_ns () - (!t0_ref + schedule.Gen.arrive_ns.(token));
        let w =
          match Runtime.Pool.worker_index () with Some w -> w | None -> 0
        in
        Obs.Reqtrace.on_done rtr ~token ~worker:w;
        Atomic.incr completed
      in
      Runtime.Pool.run pool (fun () ->
          let t0 = Obs.Clock.now_ns () in
          t0_ref := t0;
          dispatch_loop ~hl ~t0 ~arrive_ns:schedule.Gen.arrive_ns ~lag:lag_ns
            ~release:(fun i ->
              Obs.Reqtrace.on_release rtr ~token:i
                ~arrive_ns:(t0 + schedule.Gen.arrive_ns.(i));
              Atomic.incr dispatched;
              promises.(i) <- Some (Runtime.Pool.async pool (serve i)));
          Array.iter
            (function
              | Some p -> Runtime.Pool.await pool p | None -> ())
            promises;
          elapsed := Obs.Clock.now_ns () - t0));
  let st = Runtime.Shard_rt.total_stats srt in
  let slo_burns = ref 0 in
  for sid = 0 to shards - 1 do
    List.iter
      (fun ph -> slo_burns := !slo_burns + Obs.Health.burn_count hl ~sid ph)
      [ Obs.Health.Pending; Obs.Health.Exec ]
  done;
  let elapsed_ns = float_of_int !elapsed in
  {
    shards;
    workers;
    requests = n;
    elapsed_ns;
    goodput =
      (if elapsed_ns > 0.0 then float_of_int n /. (elapsed_ns /. 1e9) else 0.0);
    classes = Latency.of_samples ~cls:schedule.Gen.cls lat_ns;
    batches = st.Runtime.Batcher_rt.batches;
    max_batch = st.Runtime.Batcher_rt.max_batch;
    stalls = Obs.Health.stall_count hl;
    slo_burns = !slo_burns;
    lag_ns;
    trace = rtr;
  }

let run ?workers ?snapshot_path ?duration_s ?trace sc =
  List.map
    (fun shards ->
      run_point ?workers ?snapshot_path ?duration_s ?trace sc ~shards)
    sc.Scenario.rt_shards
