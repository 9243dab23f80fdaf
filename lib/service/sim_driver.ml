type point = {
  p : int;
  shards : int;
  requests : int;
  makespan_ns : float;
  goodput : float;
  classes : Latency.class_stats list;
  batches : int;
  max_batch : int;
  max_batches_seen : int;
  max_in_system : int;
  bound : (unit, string) result;
  bound_budget_ns : float;
  bound_terms : Check.Bound.service_terms;
  trace : Obs.Reqtrace.t;
}

let run_point ?(trace = false) (sc : Scenario.t) ~p =
  let (module S : Store.STORE) = sc.Scenario.store in
  let shards = sc.Scenario.sim_shards in
  let unit_ns = sc.Scenario.sim_ns_per_unit in
  let reqs = Gen.generate_n (Scenario.gen_sim sc) ~n:sc.Scenario.sim_requests in
  let n = Gen.length reqs in
  (* Range requests route by their start key as point submissions: the
     virtual-clock engine has no scatter/merge, and charging the full
     batch protocol on one shard is the load that matters here. The
     runtime leg executes the real fan-out. *)
  let at = Array.make n 0 and shard = Array.make n 0 in
  for i = 0 to n - 1 do
    at.(i) <- reqs.Gen.arrive_ns.(i) / unit_ns;
    shard.(i) <- Batched.Shard.route ~shards reqs.Gen.key.(i)
  done;
  let models =
    Array.init shards (fun i -> S.model ~n_keys:sc.Scenario.n_keys ~shards i)
  in
  let cfg = Sim.Openloop.config ~p ~shards () in
  let res = Sim.Openloop.run cfg ~models ~at ~shard in
  let lat_ns = Array.make n 0 in
  let wait_max = ref 0 in
  for i = 0 to n - 1 do
    let w = res.Sim.Openloop.waits.(i) in
    if w > !wait_max then wait_max := w;
    lat_ns.(i) <- w * unit_ns
  done;
  (* The virtual-clock anatomy is two phases — pending-wait (arrival to
     batch launch) and batch-exec (launch to completion); the engine
     admits at arrival and resumes at completion, so queue/sched are
     structurally zero. One bulk record per request, deterministic. *)
  let rtr =
    if trace then
      Obs.Reqtrace.create ~workers:1 ~classes:Gen.n_classes ~capacity:n ()
    else Obs.Reqtrace.null
  in
  if trace then
    for i = 0 to n - 1 do
      let w = res.Sim.Openloop.waits.(i)
      and lw = res.Sim.Openloop.launch_waits.(i) in
      Obs.Reqtrace.record_sim rtr ~token:i ~cls:reqs.Gen.cls.(i)
        ~sid:shard.(i) ~arrive_ns:(at.(i) * unit_ns)
        ~pending_ns:(lw * unit_ns)
        ~exec_ns:((w - lw) * unit_ns)
        ~seen:res.Sim.Openloop.batches_seen.(i)
    done;
  let makespan_ns = float_of_int (res.Sim.Openloop.makespan * unit_ns) in
  let bound =
    Check.Bound.service_check ~factor:sc.Scenario.bound_factor ~p
      ~wait_max:!wait_max ~total_work:res.Sim.Openloop.total_work
      ~per_shard_ops:res.Sim.Openloop.per_shard_ops
      ~per_shard_span:res.Sim.Openloop.per_shard_span_max
      ~m:res.Sim.Openloop.max_batches_seen ()
  in
  (* The same bound terms the check uses, printed beside the point so
     the dominant term is on screen. *)
  let bound_terms =
    Check.Bound.service_terms ~p ~total_work:res.Sim.Openloop.total_work
      ~per_shard_ops:res.Sim.Openloop.per_shard_ops
      ~per_shard_span:res.Sim.Openloop.per_shard_span_max
      ~m:res.Sim.Openloop.max_batches_seen
  in
  let bound_budget_ns =
    float_of_int
      (Check.Bound.service_budget ~p ~total_work:res.Sim.Openloop.total_work
         ~per_shard_ops:res.Sim.Openloop.per_shard_ops
         ~per_shard_span:res.Sim.Openloop.per_shard_span_max
         ~m:res.Sim.Openloop.max_batches_seen
      * unit_ns)
  in
  {
    p;
    shards;
    requests = n;
    makespan_ns;
    goodput = (if makespan_ns > 0.0 then float_of_int n /. (makespan_ns /. 1e9) else 0.0);
    classes = Latency.of_samples ~cls:reqs.Gen.cls lat_ns;
    batches = res.Sim.Openloop.batches;
    max_batch = res.Sim.Openloop.max_batch;
    max_batches_seen = res.Sim.Openloop.max_batches_seen;
    max_in_system = res.Sim.Openloop.max_in_system;
    bound;
    bound_budget_ns;
    bound_terms;
    trace = rtr;
  }

let run ?trace sc = List.map (fun p -> run_point ?trace sc ~p) sc.Scenario.sim_p
