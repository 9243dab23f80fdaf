(* The concrete legs of the causal what-if profiler (Obs.Causal holds
   the generic delta/ranking logic; DESIGN.md §15).

   Sim leg: exact virtual speedups. Each (phase × factor) grid cell
   re-runs the *identical* request array through Sim.Openloop with the
   phase's Sim.Costs factor scaled to 1/f (the worker-share knob
   scales to f: "this shard gets f× the workers"), so deltas are
   deterministic and exact, and every cell re-evaluates the Theorem-1
   service budget (Check.Bound.service_budget) on its own measured
   terms — the measured-vs-bound sensitivity comparison.

   Runtime leg: Coz-style virtual speedup by relative slowdown. The
   profiler cannot make real code faster, so speeding phase X up by f
   is produced by slowing every *other* injectable phase by f
   (Batcher_rt.inject, self-calibrating spins) while stretching the
   open-loop arrival schedule by f (rate × 1/f) — the whole batcher
   slows uniformly except X, which is now relatively f× faster. Each
   cell is compared against a *control* run at the same factor with
   every phase slowed (the uniformly-dilated system), so the parts the
   injector cannot reach (pool scheduling, the dispatcher) bias cell
   and control equally and cancel in the delta. Reqtrace span
   conservation is checked on every injected run. *)

type result = {
  profile : Obs.Causal.profile;
  errors : string list;
}

let default_sim_factors = [ 1.25; 2.0; 4.0 ]
let default_rt_factors = [ 2.0 ]

let measure_of_classes ~goodput ~bound_ns classes =
  let all = Latency.all_of classes in
  {
    Obs.Causal.goodput;
    mean_ns = all.Latency.mean_ns;
    p99_ns = all.Latency.p99_ns;
    max_ns = all.Latency.max_ns;
    bound_ns;
    per_class =
      List.filter_map
        (fun (c : Latency.class_stats) ->
          if c.Latency.cls = "all" then None
          else Some (c.Latency.cls, c.Latency.mean_ns))
        classes;
  }

(* ---- sim leg ---- *)

(* phase, family, Reqtrace share predicting it, costs for speedup f.
   The share mapping states what the share-based prediction *would*
   be: all four batch-interior knobs live inside the exec phase (the
   sim's batch duration), and the worker-share knob has no share at
   all — divergence between these predictions and the measured deltas
   is the point. *)
let sim_phases =
  [
    ( "bop_work",
      "work",
      Some "exec",
      fun f -> { Sim.Costs.identity with Sim.Costs.bop_work = 1.0 /. f } );
    ( "bop_span",
      "span",
      Some "exec",
      fun f -> { Sim.Costs.identity with Sim.Costs.bop_span = 1.0 /. f } );
    ( "setup_work",
      "work",
      Some "exec",
      fun f -> { Sim.Costs.identity with Sim.Costs.setup_work = 1.0 /. f } );
    ( "setup_span",
      "span",
      Some "exec",
      fun f -> { Sim.Costs.identity with Sim.Costs.setup_span = 1.0 /. f } );
    ( "share",
      "share",
      None,
      fun f -> { Sim.Costs.identity with Sim.Costs.p_share = f } );
  ]

let measure_of_sim (pt : Sim_driver.point) =
  measure_of_classes ~goodput:pt.Sim_driver.goodput
    ~bound_ns:pt.Sim_driver.bound_budget_ns pt.Sim_driver.classes

let run_sim ?(factors = default_sim_factors) (sc : Scenario.t) =
  if factors = [] then invalid_arg "Causal.run_sim: factors must be non-empty";
  List.iter
    (fun f ->
      if Float.is_nan f || f <= 1.0 then
        invalid_arg "Causal.run_sim: factors must be > 1")
    factors;
  (* P: the *first* swept worker count — the scenarios put the
     overloaded end there, where causal structure is richest (under
     overload a phase's share wildly understates its sensitivity). *)
  let p = match sc.Scenario.sim_p with p :: _ -> p | [] -> 1 in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* Baseline is traced: its shares feed the share-based predictions,
     and its conservation check is the sim leg's self-test. *)
  let base_pt = Sim_driver.run_point ~trace:true sc ~p in
  (match Obs.Reqtrace.check base_pt.Sim_driver.trace with
  | Ok () -> ()
  | Error e -> err "sim baseline conservation: %s" e);
  (match base_pt.Sim_driver.bound with
  | Ok () -> ()
  | Error e -> err "sim baseline bound: %s" e);
  let shares =
    Obs.Reqtrace.(shares (totals base_pt.Sim_driver.trace))
  in
  let baseline = measure_of_sim base_pt in
  let cells =
    List.concat_map
      (fun (phase, family, share_of, costs_of) ->
        List.map
          (fun f ->
            let pt = Sim_driver.run_point ~costs:(costs_of f) sc ~p in
            (match pt.Sim_driver.bound with
            | Ok () -> ()
            | Error e -> err "sim cell %s x%g bound: %s" phase f e);
            Obs.Causal.cell ~baseline ~shares ~phase ~family ~share_of
              ~speedup:f (measure_of_sim pt))
          factors)
      sim_phases
  in
  let profile =
    Obs.Causal.profile ~exec:"sim"
      ~label:
        (Printf.sprintf "%s P=%d K=%d (%d requests, virtual clock)"
           sc.Scenario.name p sc.Scenario.sim_shards
           base_pt.Sim_driver.requests)
      ~baseline ~shares cells
  in
  { profile; errors = List.rev !errors }

(* ---- runtime leg ---- *)

let rt_phases =
  [
    (* speedup of X = slow every *other* phase; share mapping: the BOP
       body is the exec phase; assembly/cleanup and the publication
       path both land in the pending-wait of the requests they delay —
       approximate by construction (which is why the sim leg, where
       shares are exact, is the reference). *)
    ( "bop",
      "work",
      Some "exec",
      fun f ->
        { Runtime.Batcher_rt.slow_submit = f; slow_setup = f; slow_bop = 1.0 }
    );
    ( "setup",
      "work",
      Some "pending",
      fun f ->
        { Runtime.Batcher_rt.slow_submit = f; slow_setup = 1.0; slow_bop = f }
    );
    ( "submit",
      "sched",
      Some "pending",
      fun f ->
        { Runtime.Batcher_rt.slow_submit = 1.0; slow_setup = f; slow_bop = f }
    );
  ]

let measure_of_rt (pt : Rt_driver.point) =
  measure_of_classes ~goodput:pt.Rt_driver.goodput ~bound_ns:nan
    pt.Rt_driver.classes

let run_rt ?workers ?duration_s ?(factors = default_rt_factors)
    (sc : Scenario.t) =
  if factors = [] then invalid_arg "Causal.run_rt: factors must be non-empty";
  List.iter
    (fun f ->
      if Float.is_nan f || f <= 1.0 then
        invalid_arg "Causal.run_rt: factors must be > 1")
    factors;
  let shards =
    match List.rev sc.Scenario.rt_shards with k :: _ -> k | [] -> 1
  in
  let duration_s =
    match duration_s with
    | Some d -> d
    | None -> Float.min sc.Scenario.duration_s 1.0
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let conserve name (pt : Rt_driver.point) =
    match Obs.Reqtrace.check pt.Rt_driver.trace with
    | Ok () -> ()
    | Error e -> err "runtime %s conservation: %s" name e
  in
  let point ?inject msc =
    Rt_driver.run_point ?workers ~duration_s ~trace:true ?inject msc ~shards
  in
  (* Headline baseline: no injection, the scenario's own rate. *)
  let base_pt = point sc in
  conserve "baseline" base_pt;
  let shares = Obs.Reqtrace.(shares (totals base_pt.Rt_driver.trace)) in
  let baseline = measure_of_rt base_pt in
  let cells =
    List.concat_map
      (fun f ->
        (* Control at factor f: the uniformly-dilated system — every
           injectable phase slowed by f, arrivals stretched by f. A
           cell leaves exactly one phase unslowed, making it
           relatively f× faster; diffing cell against control cancels
           the un-injectable parts (pool scheduling, dispatcher). *)
        let slowed = Sweep.scale sc (1.0 /. f) in
        let control_pt =
          point
            ~inject:
              {
                Runtime.Batcher_rt.slow_submit = f;
                slow_setup = f;
                slow_bop = f;
              }
            slowed
        in
        conserve (Printf.sprintf "control x%g" f) control_pt;
        let control = measure_of_rt control_pt in
        List.map
          (fun (phase, family, share_of, inject_of) ->
            let pt = point ~inject:(inject_of f) slowed in
            conserve (Printf.sprintf "cell %s x%g" phase f) pt;
            Obs.Causal.cell ~baseline:control ~shares ~phase ~family
              ~share_of ~speedup:f (measure_of_rt pt))
          rt_phases)
      factors
  in
  let profile =
    Obs.Causal.profile ~exec:"runtime"
      ~label:
        (Printf.sprintf
           "%s K=%d P=%d (%.1fs/point, delay injection vs dilated control)"
           sc.Scenario.name shards base_pt.Rt_driver.workers duration_s)
      ~baseline ~shares cells
  in
  { profile; errors = List.rev !errors }
