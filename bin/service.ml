(* Open-loop KV-service runner: one named scenario, both executions,
   and where each request's latency goes.

     dune exec bin/service.exe -- --scenario standard
     dune exec bin/service.exe -- --scenario smoke --exec sim --top 5
     dune exec bin/service.exe -- --scenario smoke --exec runtime \
       --shards 2 --trace trace.json
     dune exec bin/service.exe -- --scenario smoke --load-sweep
     dune exec bin/service.exe -- --list

   The default mode runs the legs. The sim leg sweeps the scenario's
   worker counts on the virtual clock (Sim.Openloop) and cross-checks
   every point's per-request waits against the composed Theorem-1
   bound terms (Check.Bound.service_check), and prints the budget with
   its work, serialization and slack terms; the runtime leg is a timed
   open-loop run over Pool/Shard_rt per shard count, every request
   measured from its scheduled arrival stamp. --top or --trace turns
   request tracing on, and each point then prints its anatomy: the
   slowest requests per op class, each latency split exactly into
   queue + sched + pending + exec + post, and the share of all latency
   in each phase. --trace writes every traced point as one process of
   a Perfetto trace (Obs.Chrome's request view).

   --load-sweep re-runs the runtime leg over offered-load multipliers
   and finds the throughput knee. Every traced span must pass
   Obs.Reqtrace.check. *)

let usage () =
  prerr_endline
    "usage: service [options]\n\n\
     Runs one service scenario open-loop and prints every point.\n\
    \  --scenario NAME  scenario to run (default standard; see --list)\n\
    \  --list           list scenarios and exit\n\
    \  --exec MODE      sim | runtime | both (default both)\n\
    \  --p N            run the sim leg at N workers only\n\
    \  --shards K       run the runtime leg at K shards only\n\
    \  --workers N      runtime pool size (default: recommended count,\n\
    \                   min 2 -- the dispatcher owns a worker)\n\
    \  --duration S     runtime seconds per point (default: the\n\
    \                   scenario's; min of it and 1 s with --load-sweep)\n\
    \  --seed N         override the scenario's seed\n\
    \  --snapshot PATH  run the runtime leg with the online checkers and\n\
    \                   stream them with its health as JSONL to PATH\n\
    \  --top N          trace requests; print each point's N slowest\n\
    \                   per op class (default 10) and its phase shares\n\
    \  --trace PATH     trace requests; write each traced point's\n\
    \                   sampled and slowest spans as Perfetto JSON\n\
    \  --quiet          print only failures and the load sweep's knee\n\
     A mode, instead of the legs:\n\
    \  --load-sweep     sweep the runtime leg over offered-load\n\
    \                   multipliers, find the throughput knee, and print\n\
    \                   each point's latency and phase shares\n\
    \  --mults LIST     comma-separated multipliers (default\n\
    \                   0.25,0.5,1,2,4)\n\
     Exit status: 0 ok, 1 a sim point escaped the Theorem-1 wait budget\n\
     or a traced span's phases do not sum to its latency; 2 usage error."

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("service: " ^ m);
      usage ();
      exit 2)
    fmt

let us ns = ns /. 1e3
let ius ns = us (float_of_int ns)

let print_classes classes =
  List.iter
    (fun (c : Svc.Latency.class_stats) ->
      Printf.printf
        "    %-6s n=%-7d mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus \
         max=%.1fus\n"
        c.Svc.Latency.cls c.Svc.Latency.requests (us c.Svc.Latency.mean_ns)
        (us c.Svc.Latency.p50_ns) (us c.Svc.Latency.p99_ns)
        (us c.Svc.Latency.p999_ns) (us c.Svc.Latency.max_ns))
    classes

(* Each phase's share of all latency: the load sweep's and the
   anatomy's one printer. *)
let print_shares shares =
  List.iter
    (fun (name, v) -> Printf.printf " %s=%.1f%%" name (100.0 *. v))
    shares;
  print_newline ()

let print_span (s : Obs.Reqtrace.span) =
  Printf.printf
    "      #%-7d %8.1fus = q %7.1f + sched %7.1f + pend %7.1f + exec %7.1f \
     + post %7.1f  m=%-2d  w%d>w%d>w%d\n"
    s.Obs.Reqtrace.token
    (ius s.Obs.Reqtrace.latency_ns)
    (ius s.Obs.Reqtrace.queue_ns)
    (ius s.Obs.Reqtrace.sched_pre_ns)
    (ius s.Obs.Reqtrace.pending_ns)
    (ius s.Obs.Reqtrace.exec_ns)
    (ius s.Obs.Reqtrace.sched_post_ns)
    s.Obs.Reqtrace.batches_seen s.Obs.Reqtrace.w_start
    s.Obs.Reqtrace.w_batch s.Obs.Reqtrace.w_done

(* A traced point's anatomy: per op class its slowest [top] spans with
   their batches-while-pending (the empirical Lemma-2 figure, reported
   against the paper's dual-deque bound of 2, not asserted), then the
   phase shares over every span. *)
let print_anatomy ~top trace =
  Array.iteri
    (fun c cls ->
      match Obs.Reqtrace.slowest ~cls:c ~n:top trace with
      | [] -> ()
      | spans ->
          let max_m =
            List.fold_left
              (fun acc (s : Obs.Reqtrace.span) ->
                max acc s.Obs.Reqtrace.batches_seen)
              0 spans
          in
          let n = (Obs.Reqtrace.totals ~cls:c trace).Obs.Reqtrace.n in
          Printf.printf
            "    %s: n=%d slowest %d of %d captured, max \
             batches-while-pending (slowest set) m=%d%s\n"
            cls n (List.length spans) n max_m
            (if max_m > 2 then " (> the paper's Lemma-2 bound of 2)" else "");
          List.iter print_span spans)
    Svc.Gen.class_names;
  let tt = Obs.Reqtrace.totals trace in
  Printf.printf "    attribution over %d spans:" tt.Obs.Reqtrace.n;
  print_shares (Obs.Reqtrace.shares tt)

let positive flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> die "%s expects a positive integer, got %S" flag v

let mults_of v =
  List.map
    (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some f when f > 0.0 -> f
      | _ -> die "--mults expects positive numbers, got %S" s)
    (String.split_on_char ',' v)

let () =
  let scenario = ref "standard" in
  let list_only = ref false in
  let exec = ref "both" in
  let p = ref None and shards = ref None in
  let workers = ref None in
  let duration = ref None in
  let seed = ref None in
  let snapshot = ref None in
  let top = ref None and trace_path = ref None in
  let quiet = ref false in
  let load_sweep = ref false and mults = ref None in
  let rec go = function
    | [] -> ()
    | "--list" :: rest -> list_only := true; go rest
    | "--quiet" :: rest -> quiet := true; go rest
    | "--load-sweep" :: rest -> load_sweep := true; go rest
    | "--scenario" :: v :: rest -> scenario := v; go rest
    | "--exec" :: v :: rest ->
        if v <> "sim" && v <> "runtime" && v <> "both" then
          die "--exec expects sim|runtime|both, got %S" v;
        exec := v;
        go rest
    | "--p" :: v :: rest -> p := Some (positive "--p" v); go rest
    | "--shards" :: v :: rest -> shards := Some (positive "--shards" v); go rest
    | "--workers" :: v :: rest ->
        workers := Some (positive "--workers" v);
        go rest
    | "--top" :: v :: rest -> top := Some (positive "--top" v); go rest
    | "--duration" :: v :: rest -> (
        match float_of_string_opt v with
        | Some d when d > 0.0 -> duration := Some d; go rest
        | _ -> die "--duration expects positive seconds, got %S" v)
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n -> seed := Some n; go rest
        | None -> die "--seed expects an integer, got %S" v)
    | "--snapshot" :: v :: rest -> snapshot := Some v; go rest
    | "--trace" :: v :: rest -> trace_path := Some v; go rest
    | "--mults" :: v :: rest -> mults := Some (mults_of v); go rest
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | arg :: _ -> die "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter
      (fun (s : Svc.Scenario.t) ->
        Printf.printf "%-14s %s\n" s.Svc.Scenario.name s.Svc.Scenario.descr)
      Svc.Scenario.all;
    exit 0
  end;
  let sc =
    match Svc.Scenario.find !scenario with
    | Some sc -> sc
    | None ->
        die "unknown scenario %S (have: %s)" !scenario
          (String.concat ", " (Svc.Scenario.names ()))
  in
  (* --seed, --p and --shards override the scenario's own. *)
  let sc =
    {
      sc with
      Svc.Scenario.seed = Option.value !seed ~default:sc.Svc.Scenario.seed;
      sim_p = Option.fold ~none:sc.Svc.Scenario.sim_p ~some:(fun p -> [ p ]) !p;
      rt_shards =
        Option.fold ~none:sc.Svc.Scenario.rt_shards
          ~some:(fun k -> [ k ])
          !shards;
    }
  in
  let sim = !exec <> "runtime" and rt = !exec <> "sim" in
  let say fmt = if !quiet then Printf.ifprintf stdout fmt else Printf.printf fmt in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let conserve label trace =
    match Obs.Reqtrace.check trace with
    | Ok () -> ()
    | Error e -> fail "span conservation: %s: %s" label e
  in
  if !load_sweep then begin
    say "[svc] load sweep: %s, base rate %.0f req/s\n%!" sc.Svc.Scenario.name
      sc.Svc.Scenario.rt_rate;
    let sw =
      Svc.Sweep.run ?mults:!mults ?workers:!workers ?duration_s:!duration sc
    in
    List.iter
      (fun (p : Svc.Sweep.point) ->
        let pt = p.Svc.Sweep.pt in
        let label =
          Printf.sprintf "K=%d x%g" sw.Svc.Sweep.shards p.Svc.Sweep.mult
        in
        if not !quiet then begin
          Printf.printf
            "  K=%d x%-4g offered=%7.0f goodput=%7.0f req/s (%.0f%%) \
             p99=%.1fus"
            sw.Svc.Sweep.shards p.Svc.Sweep.mult p.Svc.Sweep.offered_req_s
            pt.Svc.Rt_driver.goodput
            (100.0 *. pt.Svc.Rt_driver.goodput /. p.Svc.Sweep.offered_req_s)
            (us
               (Svc.Latency.all_of pt.Svc.Rt_driver.classes)
                 .Svc.Latency.p99_ns);
          print_shares p.Svc.Sweep.shares
        end;
        (* The shares mean something only if every span's phases sum
           to its measured latency. *)
        conserve label pt.Svc.Rt_driver.trace)
      sw.Svc.Sweep.points;
    let kn = sw.Svc.Sweep.knee in
    Printf.printf "  knee: K=%d %s\n" sw.Svc.Sweep.shards
      (match kn.Svc.Sweep.k_status with
      | Svc.Sweep.Inside_grid ->
          Printf.sprintf "%.0f req/s (x%g)" kn.Svc.Sweep.knee_req_s
            kn.Svc.Sweep.knee_mult
      | Svc.Sweep.Top_kept_up ->
          Printf.sprintf "≥ %.0f req/s (top of grid)" kn.Svc.Sweep.knee_req_s
      | Svc.Sweep.No_point_kept_up -> "below the lowest swept rate")
  end
  else begin
    let traced = !top <> None || !trace_path <> None in
    let top = Option.value !top ~default:10 in
    let points = ref [] in
    let anatomy label trace =
      if traced then begin
        if not !quiet then print_anatomy ~top trace;
        conserve label trace;
        if !trace_path <> None then points := (label, trace) :: !points
      end
    in
    if sim then begin
      say "[svc] sim leg: %s, shards=%d, %d requests, P sweep %s\n%!"
        sc.Svc.Scenario.name sc.Svc.Scenario.sim_shards
        sc.Svc.Scenario.sim_requests
        (String.concat "," (List.map string_of_int sc.Svc.Scenario.sim_p));
      (* The budget's terms are in cost units of the virtual clock. *)
      let term n = ius (n * sc.Svc.Scenario.sim_ns_per_unit) in
      List.iter
        (fun (pt : Svc.Sim_driver.point) ->
          let t = pt.Svc.Sim_driver.bound_terms in
          say
            "  P=%-3d goodput=%.0f req/s batches=%d max_batch=%d m=%d \
             in_system<=%d %s budget=%.1fus (work %.1f + serial %.1f + \
             slack %.1f)\n"
            pt.Svc.Sim_driver.p pt.Svc.Sim_driver.goodput
            pt.Svc.Sim_driver.batches pt.Svc.Sim_driver.max_batch
            pt.Svc.Sim_driver.max_batches_seen
            pt.Svc.Sim_driver.max_in_system
            (match pt.Svc.Sim_driver.bound with
            | Ok () -> "bound OK"
            | Error _ -> "bound FAIL")
            (us pt.Svc.Sim_driver.bound_budget_ns)
            (term t.Check.Bound.work_term)
            (term t.Check.Bound.serial_term)
            (term t.Check.Bound.slack);
          if not !quiet then print_classes pt.Svc.Sim_driver.classes;
          (match pt.Svc.Sim_driver.bound with
          | Ok () -> ()
          | Error e ->
              fail "Theorem-1 wait budget: P=%d: %s" pt.Svc.Sim_driver.p e);
          anatomy
            (Printf.sprintf "%s sim P=%d" sc.Svc.Scenario.name
               pt.Svc.Sim_driver.p)
            pt.Svc.Sim_driver.trace)
        (Svc.Sim_driver.run ~trace:traced sc)
    end;
    if rt then begin
      say "[svc] runtime leg: %s, K sweep %s, %.1fs measured\n%!"
        sc.Svc.Scenario.name
        (String.concat "," (List.map string_of_int sc.Svc.Scenario.rt_shards))
        (Option.value !duration ~default:sc.Svc.Scenario.duration_s);
      List.iter
        (fun (pt : Svc.Rt_driver.point) ->
          say
            "  K=%-2d P=%d n=%d goodput=%.0f req/s batches=%d max_batch=%d \
             stalls=%d\n"
            pt.Svc.Rt_driver.shards pt.Svc.Rt_driver.workers
            pt.Svc.Rt_driver.requests pt.Svc.Rt_driver.goodput
            pt.Svc.Rt_driver.batches pt.Svc.Rt_driver.max_batch
            pt.Svc.Rt_driver.stalls;
          if not !quiet then
            print_classes
              (pt.Svc.Rt_driver.classes
              @ [ Svc.Latency.digest "lag" pt.Svc.Rt_driver.lag_ns ]);
          anatomy
            (Printf.sprintf "%s runtime K=%d P=%d" sc.Svc.Scenario.name
               pt.Svc.Rt_driver.shards pt.Svc.Rt_driver.workers)
            pt.Svc.Rt_driver.trace)
        (Svc.Rt_driver.run ?workers:!workers ?snapshot_path:!snapshot
           ?duration_s:!duration ~trace:traced sc)
    end;
    Option.iter
      (fun path ->
        let events =
          List.concat
            (List.mapi
               (fun i (name, trace) ->
                 Obs.Chrome.requests ~pid:(i + 1) ~name
                   ~classes:Svc.Gen.class_names
                   (Obs.Reqtrace.exported trace))
               (List.rev !points))
        in
        Obs.Chrome.write_events ~path events;
        say "[svc] wrote %d trace events for %d points to %s\n"
          (List.length events) (List.length !points) path)
      !trace_path
  end;
  match List.rev !failures with
  | [] -> ()
  | fails ->
      List.iter (fun f -> Printf.printf "[svc] FAIL %s\n" f) fails;
      exit 1
