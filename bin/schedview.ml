(* schedview: the measured-vs-predicted Theorem-1 bound table and the
   recording summary for one workload, and its Chrome trace.

   Default mode runs the workload deterministically through the
   simulator (and, with --runtime, --out or --snapshot, through the
   OCaml-domains runtime), with a recorder attached to each run, reads
   each recording once into Obs.Summary, and prints:

   - the bound table: each Theorem-1 term next to the measured bucket
     that realizes it, with the makespan/bound ratio (simulator only);
   - each execution's Summary.pp: the six worker-time buckets, per-worker
     utilization, status time, per-structure serialization chains,
     histograms, the critical-path witness and its top segments.

   --out writes both runs as one Chrome trace-event JSON, as separate
   processes — open it in Perfetto / chrome://tracing. The sim process
   renders 1 simulated timestep as 1 us; the runtime process is
   wall-clock. Worker tracks show status spans plus steal instants;
   each structure gets a synthetic batch track (tid 1000+sid) with one
   span per LAUNCHBATCH, and each worker a work track (tid 2000+w) of
   class-colored Work spans. --snapshot streams live counter-delta
   JSONL, which bin/monitor.exe renders.

   Conservation is a gate, not a report: if the buckets do not sum to
   P x makespan (sim) or fail to tile each worker's observed span
   (runtime), schedview exits 1. CI runs this on every push.

     dune exec bin/schedview.exe -- --workload fig5 --p 4 --n 300
     dune exec bin/schedview.exe -- --workload multi --runtime --json sv.json
     dune exec bin/schedview.exe -- --workload fig5 --p 4 --out trace.json *)

(* ---- sim: measured-vs-predicted bound table ---- *)

let bound_table ~workload ~(metrics : Sim.Metrics.t)
    (tot : Obs.Summary.buckets) =
  let p = metrics.Sim.Metrics.p in
  let t1, t_inf, n_ops, m = Sim.Workload.core_metrics workload in
  let w = metrics.Sim.Metrics.batch_work + metrics.Sim.Metrics.setup_work in
  let batch_span =
    List.fold_left
      (fun acc bd -> max acc bd.Sim.Metrics.bd_span)
      0 metrics.Sim.Metrics.batch_details
  in
  let setup_span = 2 * ((2 * Batcher_core.Theory.log2i p) + 1) in
  let s = batch_span + setup_span in
  let predicted = Check.Bound.theorem1 ~workload ~metrics in
  let fdiv x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  Printf.printf
    "Theorem-1 decomposition (sim, %d workers, makespan %d steps):\n" p
    metrics.Sim.Metrics.makespan;
  Printf.printf "  %-22s %12s %12s   %s\n" "term" "predicted" "measured"
    "measured source";
  Printf.printf "  %-22s %12.1f %12.1f   %s\n" "T1/P" (fdiv t1 p)
    (fdiv tot.core p) "core bucket / P";
  Printf.printf "  %-22s %12.1f %12.1f   %s\n" "(W(n)+n*s(n))/P"
    (fdiv (w + (n_ops * s)) p)
    (fdiv (tot.batch + tot.setup) p)
    "(batch+setup) / P";
  Printf.printf "  %-22s %12d %12.1f   %s\n" "m*s(n)" (m * s)
    (fdiv tot.wait p) "wait bucket / P";
  Printf.printf "  %-22s %12d %12d   %s\n" "T_inf" t_inf
    metrics.Sim.Metrics.span_realized "realized span (witness below)";
  Printf.printf "  %-22s %12s %12.1f   %s\n" "sched+idle (unmodeled)" "-"
    (fdiv (tot.sched + tot.idle) p)
    "(sched+idle) / P";
  Printf.printf "  %-22s %12d %12d   ratio %.2f\n" "bound vs makespan" predicted
    metrics.Sim.Metrics.makespan
    (Check.Bound.ratio ~workload ~metrics);
  Printf.printf
    "  (n=%d ops, m=%d batches, s(n)=%d = widest batch span %d + setup %d)\n"
    n_ops m s batch_span setup_span

(* ---- driver ---- *)

let main workload overhead p n seed ~runtime ~json ~out ~snapshot =
  let snap_oc = Option.map open_out snapshot in
  let sim_rc, metrics, w =
    Workloads.run_sim ?snapshot_oc:snap_oc workload ~p ~n ~seed ~overhead
  in
  let sim = Obs.Summary.of_recorder sim_rc in
  bound_table ~workload:w ~metrics sim.Obs.Summary.total;
  Format.printf "@.---- simulator ----@.%a@?" Obs.Summary.pp sim;
  (* The gate: conservation must hold exactly on the sim clock, and the
     full cross-check (buckets vs sim counters, span/witness <= makespan)
     must pass. CI treats a non-zero exit here as a regression. *)
  let fail who = function
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "schedview: %s FAILED: %s\n" who e;
        exit 1
  in
  fail "sim conservation"
    (Obs.Summary.check ~expected:(p * metrics.Sim.Metrics.makespan) sim);
  fail "sim cross-check"
    (Check.Bound.cross_check ~workload:w ~metrics ~recorder:sim_rc ());
  Printf.printf "\nsim conservation: OK (buckets sum to %d x %d)\n" p
    metrics.Sim.Metrics.makespan;
  let rt =
    if not runtime then None
    else begin
      let rt_rc =
        Workloads.run_runtime ?snapshot_oc:snap_oc workload ~p ~n ~seed
      in
      let rs = Obs.Summary.of_recorder rt_rc in
      Format.printf "@.---- real runtime ----@.%a@?" Obs.Summary.pp rs;
      (* Runtime gate: buckets must tile each worker's observed span
         (segments are emitted back to back, so this is exact in
         integer nanoseconds unless events were dropped). *)
      fail "runtime conservation" (Obs.Summary.check rs);
      Printf.printf "\nruntime conservation: OK (buckets tile observed spans)\n";
      Some (rt_rc, rs)
    end
  in
  Option.iter close_out snap_oc;
  Option.iter (fun path -> Printf.printf "snapshots -> %s\n" path) snapshot;
  (match (out, rt) with
  | Some path, Some (rt_rc, _) ->
      Obs.Chrome.write_file ~path
        [
          { Obs.Chrome.pid = 1; name = "sim (1 step = 1us)"; recording = sim_rc };
          { Obs.Chrome.pid = 2; name = "runtime (wall clock)"; recording = rt_rc };
        ];
      Printf.printf "wrote %s\n" path
  | _ -> ());
  (match json with
  | None -> ()
  | Some path ->
      let fields =
        [
          ("workload", Obs.Json.Str (Workloads.name workload));
          ("p", Obs.Json.Int p);
          ("n", Obs.Json.Int n);
          ("seed", Obs.Json.Int seed);
          ("makespan", Obs.Json.Int metrics.Sim.Metrics.makespan);
          ("span_realized", Obs.Json.Int metrics.Sim.Metrics.span_realized);
          ("bound", Obs.Json.Int (Check.Bound.theorem1 ~workload:w ~metrics));
          ("ratio", Obs.Json.Float (Check.Bound.ratio ~workload:w ~metrics));
          ("sim", Obs.Summary.to_json sim);
        ]
        @
        match rt with
        | None -> []
        | Some (_, rs) -> [ ("runtime", Obs.Summary.to_json rs) ]
      in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Obs.Json.Obj fields));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  0

(* Hand-rolled CLI: cmdliner cannot spell the documented [--p] (it maps
   single-character names to [-p] only), so the flags here are parsed
   directly. Every option also accepts the [--flag=value] form. *)

let usage () =
  prerr_endline
    "usage: schedview [--workload fig5|counter|multi] [--model tree|fused|none]\n\
    \                 [--p P] [--n N] [--seed S] [--runtime] [--json out.json]\n\
    \                 [--out trace.json] [--snapshot live.jsonl]\n\n\
     Prints the measured-vs-predicted Theorem-1 bound table and each\n\
     execution's recording summary (buckets, per-worker utilization,\n\
     chains, histograms, critical path) for one workload. Exits 1 if\n\
     bucket conservation (sum = P x makespan / per-worker tiling) fails.\n\
    \  --workload       fig5 (default) | counter | multi\n\
    \  --model          simulator overhead model: tree (default) | fused | none\n\
    \  --p              worker count (default 4)\n\
    \  --n              operation count (default 200)\n\
    \  --seed           scheduler seed (default 1)\n\
    \  --runtime        also run and decompose the OCaml-domains runtime\n\
    \  --json           write the bound and each summary as JSON to PATH\n\
    \  --out            write both runs as one Chrome trace to PATH\n\
    \                   (runs the runtime leg)\n\
    \  --snapshot       stream live counter-delta JSONL to PATH (tail -f it,\n\
    \                   or render it with monitor.exe; runs the runtime leg)"

let () =
  let workload = ref Workloads.Fig5 in
  let overhead = ref Sim.Batcher.Tree_setup in
  let p = ref 4 in
  let n = ref 200 in
  let seed = ref 1 in
  let runtime = ref false in
  let json = ref None in
  let out = ref None in
  let snapshot = ref None in
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("schedview: " ^ m);
        usage ();
        exit 2)
      fmt
  in
  let parse_int name v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> bad "%s expects an integer, got %S" name v
  in
  let args = Array.to_list Sys.argv in
  let rec go = function
    | [] -> ()
    | arg :: rest ->
        let key, inline_value =
          match String.index_opt arg '=' with
          | Some i ->
              ( String.sub arg 0 i,
                Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
          | None -> (arg, None)
        in
        let value rest k =
          match (inline_value, rest) with
          | Some v, _ -> k v rest
          | None, v :: rest -> k v rest
          | None, [] -> bad "%s expects a value" key
        in
        (match key with
        | "--workload" | "-workload" ->
            value rest (fun v rest ->
                (match Workloads.of_string v with
                | Some k -> workload := k
                | None -> bad "unknown workload %S (fig5|counter|multi)" v);
                go rest)
        | "--model" | "-model" ->
            value rest (fun v rest ->
                (match v with
                | "tree" -> overhead := Sim.Batcher.Tree_setup
                | "fused" -> overhead := Sim.Batcher.Fused_setup
                | "none" -> overhead := Sim.Batcher.No_setup
                | _ -> bad "unknown overhead model %S (tree|fused|none)" v);
                go rest)
        | "--p" | "-p" -> value rest (fun v rest -> p := parse_int key v; go rest)
        | "--n" | "-n" -> value rest (fun v rest -> n := parse_int key v; go rest)
        | "--seed" -> value rest (fun v rest -> seed := parse_int key v; go rest)
        | "--runtime" -> runtime := true; go rest
        | "--json" -> value rest (fun v rest -> json := Some v; go rest)
        | "--out" | "-o" -> value rest (fun v rest -> out := Some v; go rest)
        | "--snapshot" -> value rest (fun v rest -> snapshot := Some v; go rest)
        | "--help" | "-h" -> usage (); exit 0
        | _ -> bad "unknown option %S" arg)
  in
  go (List.tl args);
  if !p < 1 then bad "--p must be >= 1";
  if !n < 1 then bad "--n must be >= 1";
  exit
    (main !workload !overhead !p !n !seed
       ~runtime:(!runtime || !out <> None || !snapshot <> None)
       ~json:!json ~out:!out ~snapshot:!snapshot)
