(* Causal what-if profiler: the grid runner.

     dune exec bin/causal.exe -- --scenario standard
     dune exec bin/causal.exe -- --scenario smoke --exec both --duration 0.4
     dune exec bin/causal.exe -- --exec sim --factors 1.25,2,4

   The sim leg replays the scenario's request array through
   Sim.Openloop once per (phase × factor) cell with that phase's cost
   knob scaled — exact, deterministic virtual speedups, each cell
   re-evaluating the Theorem-1 service budget so the table compares
   measured sensitivity against both the baseline phase shares and the
   bound's prediction. The runtime leg injects calibrated delays into
   every *other* phase of the real batch path (virtual speedup by
   relative slowdown, Coz-style) and diffs each cell against a
   uniformly-dilated control run. Each leg prints its ranked table;
   exit 1 on any span-conservation breach or Theorem-1 evaluation
   failure. *)

let usage () =
  prerr_endline
    "usage: causal [options]\n\n\
     Runs the causal what-if grid on one scenario and prints each\n\
     leg's ranked table.\n\
    \  --scenario NAME  scenario to profile (default standard; --list)\n\
    \  --list           list scenarios and exit\n\
    \  --exec MODE      sim | runtime | both (default both)\n\
    \  --p N            sim leg worker count (default: the scenario's\n\
    \                   first swept P -- the overloaded end)\n\
    \  --factors LIST   comma-separated virtual speedups > 1\n\
    \                   (default sim 1.25,2,4; runtime 2)\n\
    \  --workers N      runtime pool size (default: recommended count)\n\
    \  --duration S     runtime seconds per point (default: min of the\n\
    \                   scenario's duration and 1s)\n\
    \  --shards K       runtime shard count (default: scenario's max K)\n\
    \  --seed N         override the scenario's seed\n\
     Exit status: 0 ok, 1 span-conservation breach or Theorem-1\n\
     bound-evaluation failure, 2 usage error."

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("causal: " ^ m);
      usage ();
      exit 2)
    fmt

let () =
  let scenario = ref "standard" in
  let list_only = ref false in
  let exec = ref "both" in
  let p = ref None in
  let factors = ref None in
  let workers = ref None in
  let duration = ref None in
  let shards = ref None in
  let seed = ref None in
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        go rest
    | "--scenario" :: v :: rest ->
        scenario := v;
        go rest
    | "--exec" :: v :: rest ->
        if v <> "sim" && v <> "runtime" && v <> "both" then
          die "--exec expects sim|runtime|both, got %S" v;
        exec := v;
        go rest
    | "--p" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            p := Some n;
            go rest
        | _ -> die "--p expects a positive integer, got %S" v)
    | "--factors" :: v :: rest ->
        let parsed =
          List.map
            (fun s ->
              match float_of_string_opt (String.trim s) with
              | Some f when f > 1.0 -> f
              | _ -> die "--factors expects numbers > 1, got %S" s)
            (String.split_on_char ',' v)
        in
        if parsed = [] then die "--factors expects at least one factor";
        factors := Some parsed;
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
    | "--shards" :: v :: rest -> (
        match int_of_string_opt v with
        | Some k when k >= 1 ->
            shards := Some k;
            go rest
        | _ -> die "--shards expects a positive integer, got %S" v)
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            seed := Some n;
            go rest
        | _ -> die "--seed expects an integer, got %S" v)
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ -> die "unknown argument %s" arg
  in
  go args;
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
  let sc =
    match !seed with None -> sc | Some s -> { sc with Svc.Scenario.seed = s }
  in
  let errors = ref [] in
  (* [render] opens with the leg's "[causal] <exec> leg:" header. *)
  let leg (r : Svc.Causal.result) =
    print_string (Obs.Causal.render r.Svc.Causal.profile);
    errors := !errors @ r.Svc.Causal.errors
  in
  if !exec = "sim" || !exec = "both" then
    leg (Svc.Causal.run_sim ?p:!p ?factors:!factors sc);
  if !exec = "runtime" || !exec = "both" then
    leg
      (Svc.Causal.run_rt ?workers:!workers ?duration_s:!duration
         ?shards:!shards ?factors:!factors sc);
  match !errors with
  | [] -> ()
  | fails ->
      List.iter (fun f -> Printf.printf "[causal] FAIL: %s\n" f) fails;
      exit 1
