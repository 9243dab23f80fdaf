(* Open-loop KV-service runner: one named scenario, both executions.

     dune exec bin/service.exe -- --scenario standard
     dune exec bin/service.exe -- --scenario smoke --exec sim
     dune exec bin/service.exe -- --list

   The sim leg sweeps the scenario's worker counts on the virtual
   clock (Sim.Openloop) and cross-checks every point's per-request
   waits against the composed Theorem-1 bound terms
   (Check.Bound.service_check); the runtime leg is a timed open-loop
   run over Pool/Shard_rt per shard count, every request measured from
   its scheduled arrival stamp. Every point prints on stdout. *)

let usage () =
  prerr_endline
    "usage: service [options]\n\n\
     Runs one service scenario open-loop and prints every point.\n\
    \  --scenario NAME  scenario to run (default standard; see --list)\n\
    \  --list           list scenarios and exit\n\
    \  --exec MODE      sim | runtime | both (default both)\n\
    \  --workers N      runtime pool size (default: recommended count,\n\
    \                   min 2 -- the dispatcher owns a worker)\n\
    \  --duration S     override the runtime leg's measured seconds\n\
    \  --seed N         override the scenario's seed\n\
    \  --snapshot PATH  stream Obs.Snapshot JSONL (runtime leg) to PATH\n\
    \  --load-sweep     instead of the normal legs: sweep the runtime\n\
    \                   leg over offered-load multipliers (x0.25..x4 of\n\
    \                   rt_rate), find the throughput knee, and print\n\
    \                   each point's latency and per-phase latency shares\n\
    \  --mults LIST     comma-separated multipliers for --load-sweep\n\
    \                   (default 0.25,0.5,1,2,4)\n\
    \  --quiet          print only failures and the load sweep's knees\n\
     Exit status: 0 ok, 1 a sim point escaped the Theorem-1 wait\n\
     budget or a load-sweep point breached span conservation, 2 usage\n\
     error."

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("service: " ^ m);
      usage ();
      exit 2)
    fmt

let kns ns = Printf.sprintf "%.1f" (ns /. 1e3)

let print_classes ~quiet classes =
  if not quiet then
    List.iter
      (fun (c : Svc.Latency.class_stats) ->
        Printf.printf "    %-6s n=%-7d p50=%sus p99=%sus p999=%sus max=%sus\n"
          c.Svc.Latency.cls c.Svc.Latency.requests
          (kns c.Svc.Latency.p50_ns)
          (kns c.Svc.Latency.p99_ns)
          (kns c.Svc.Latency.p999_ns)
          (kns c.Svc.Latency.max_ns))
      classes

let () =
  let scenario = ref "standard" in
  let list_only = ref false in
  let exec = ref "both" in
  let workers = ref None in
  let duration = ref None in
  let seed = ref None in
  let snapshot = ref None in
  let load_sweep = ref false in
  let mults = ref None in
  let quiet = ref false in
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        go rest
    | "--quiet" :: rest ->
        quiet := true;
        go rest
    | "--scenario" :: v :: rest ->
        scenario := v;
        go rest
    | "--exec" :: v :: rest ->
        if v <> "sim" && v <> "runtime" && v <> "both" then
          die "--exec expects sim|runtime|both, got %S" v;
        exec := v;
        go rest
    | "--workers" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            workers := Some n;
            go rest
        | _ -> die "--workers expects a positive integer, got %S" v)
    | "--duration" :: v :: rest -> (
        match float_of_string_opt v with
        | Some d when d > 0.0 ->
            duration := Some d;
            go rest
        | _ -> die "--duration expects positive seconds, got %S" v)
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            seed := Some n;
            go rest
        | _ -> die "--seed expects an integer, got %S" v)
    | "--snapshot" :: v :: rest ->
        snapshot := Some v;
        go rest
    | "--load-sweep" :: rest ->
        load_sweep := true;
        go rest
    | "--mults" :: v :: rest ->
        let parsed =
          List.map
            (fun s ->
              match float_of_string_opt (String.trim s) with
              | Some m when m > 0.0 -> m
              | _ -> die "--mults expects positive numbers, got %S" s)
            (String.split_on_char ',' v)
        in
        if parsed = [] then die "--mults expects at least one multiplier";
        mults := Some parsed;
        go rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ -> die "unknown argument %s" arg
  in
  go args;
  if !list_only then begin
    List.iter
      (fun (s : Svc.Scenario.t) ->
        Printf.printf "%-14s %s\n" s.Svc.Scenario.name
          s.Svc.Scenario.descr)
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
  let sc =
    match !seed with
    | None -> sc
    | Some s -> { sc with Svc.Scenario.seed = s }
  in
  if !load_sweep then begin
    if not !quiet then
      Printf.printf "[svc] load sweep: %s, base rate %.0f req/s\n%!"
        sc.Svc.Scenario.name sc.Svc.Scenario.rt_rate;
    let sw =
      Svc.Sweep.run ?mults:!mults ?workers:!workers ?duration_s:!duration sc
    in
    List.iter
      (fun (p : Svc.Sweep.point) ->
        if not !quiet then begin
          let all = Svc.Latency.all_of p.Svc.Sweep.pt.Svc.Rt_driver.classes in
          Printf.printf
            "  K=%d x%-4g offered=%7.0f goodput=%7.0f req/s (%.0f%%) \
             p99=%.1fus"
            p.Svc.Sweep.shards p.Svc.Sweep.mult p.Svc.Sweep.offered_req_s
            p.Svc.Sweep.pt.Svc.Rt_driver.goodput
            (100.0 *. p.Svc.Sweep.pt.Svc.Rt_driver.goodput
            /. p.Svc.Sweep.offered_req_s)
            (all.Svc.Latency.p99_ns /. 1e3);
          List.iter
            (fun (name, v) -> Printf.printf " %s=%.0f%%" name (100.0 *. v))
            p.Svc.Sweep.shares;
          print_newline ()
        end)
      sw.Svc.Sweep.points;
    List.iter
      (fun (kn : Svc.Sweep.knee) ->
        Printf.printf "  knee: K=%d %s\n" kn.Svc.Sweep.k_shards
          (match kn.Svc.Sweep.k_status with
          | Svc.Sweep.Inside_grid ->
              Printf.sprintf "%.0f req/s (x%g)" kn.Svc.Sweep.knee_req_s
                kn.Svc.Sweep.knee_mult
          | Svc.Sweep.Top_kept_up ->
              Printf.sprintf "≥ %.0f req/s (top of grid)" kn.Svc.Sweep.knee_req_s
          | Svc.Sweep.No_point_kept_up -> "below the lowest swept rate"))
      sw.Svc.Sweep.knees;
    (* Per-point span conservation is the sweep's self-check: the phase
       shares are only meaningful if every span's phases sum to its
       measured latency. *)
    let breaches =
      List.filter_map
        (fun (p : Svc.Sweep.point) ->
          match Obs.Reqtrace.check p.Svc.Sweep.pt.Svc.Rt_driver.trace with
          | Ok () -> None
          | Error e ->
              Some
                (Printf.sprintf "K=%d x%g: %s" p.Svc.Sweep.shards
                   p.Svc.Sweep.mult e))
        sw.Svc.Sweep.points
    in
    match breaches with
    | [] -> exit 0
    | fails ->
        List.iter
          (fun f -> Printf.printf "[svc] FAIL span conservation: %s\n" f)
          fails;
        exit 1
  end;
  let bound_failures = ref [] in
  if !exec = "sim" || !exec = "both" then begin
    if not !quiet then
      Printf.printf "[svc] sim leg: %s, shards=%d, %d requests, P sweep %s\n%!"
        sc.Svc.Scenario.name sc.Svc.Scenario.sim_shards
        sc.Svc.Scenario.sim_requests
        (String.concat ","
           (List.map string_of_int sc.Svc.Scenario.sim_p));
    List.iter
      (fun (pt : Svc.Sim_driver.point) ->
        if not !quiet then
          Printf.printf
            "  P=%-3d goodput=%.0f req/s batches=%d max_batch=%d m=%d \
             in_system<=%d %s\n"
            pt.Svc.Sim_driver.p pt.Svc.Sim_driver.goodput
            pt.Svc.Sim_driver.batches pt.Svc.Sim_driver.max_batch
            pt.Svc.Sim_driver.max_batches_seen
            pt.Svc.Sim_driver.max_in_system
            (match pt.Svc.Sim_driver.bound with
            | Ok () -> "bound OK"
            | Error _ -> "bound FAIL");
        print_classes ~quiet:!quiet pt.Svc.Sim_driver.classes;
        (match pt.Svc.Sim_driver.bound with
        | Ok () -> ()
        | Error e ->
            bound_failures :=
              Printf.sprintf "P=%d: %s" pt.Svc.Sim_driver.p e
              :: !bound_failures))
      (Svc.Sim_driver.run sc)
  end;
  if !exec = "runtime" || !exec = "both" then begin
    if not !quiet then
      Printf.printf "[svc] runtime leg: %s, K sweep %s, %.1fs measured\n%!"
        sc.Svc.Scenario.name
        (String.concat ","
           (List.map string_of_int sc.Svc.Scenario.rt_shards))
        (match !duration with
        | Some d -> d
        | None -> sc.Svc.Scenario.duration_s);
    List.iter
      (fun (pt : Svc.Rt_driver.point) ->
        if not !quiet then
          Printf.printf
            "  K=%-2d P=%d n=%d goodput=%.0f req/s batches=%d max_batch=%d \
             stalls=%d burns=%d\n"
            pt.Svc.Rt_driver.shards pt.Svc.Rt_driver.workers
            pt.Svc.Rt_driver.requests pt.Svc.Rt_driver.goodput
            pt.Svc.Rt_driver.batches pt.Svc.Rt_driver.max_batch
            pt.Svc.Rt_driver.stalls pt.Svc.Rt_driver.slo_burns;
        print_classes ~quiet:!quiet
          (pt.Svc.Rt_driver.classes
          @ [ Svc.Latency.digest "lag" pt.Svc.Rt_driver.lag_ns ]))
      (Svc.Rt_driver.run ?workers:!workers ?snapshot_path:!snapshot
         ?duration_s:!duration sc)
  end;
  match !bound_failures with
  | [] -> ()
  | fails ->
      List.iter
        (fun f -> Printf.printf "[svc] FAIL Theorem-1 wait budget: %s\n" f)
        (List.rev fails);
      exit 1
