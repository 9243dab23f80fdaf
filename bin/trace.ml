(* Trace driver: runs one workload through BOTH the discrete-event
   simulator (Timesteps clock, dual-deque scheduler — the paper's exact
   protocol) and the real OCaml-domains runtime (Nanoseconds clock,
   trapped Batcher_rt), with an Obs.Recorder attached to each, and
   writes a single Chrome trace-event JSON holding the two runs as
   separate processes — open it in Perfetto / chrome://tracing.

   The sim process renders 1 simulated timestep as 1 us; the runtime
   process is wall-clock. Worker tracks show free/pending/executing/done
   status spans plus steal instants; each structure gets a synthetic
   batch track (tid 1000+sid) with one span per LAUNCHBATCH, and each
   worker a work track (tid 2000+w) of class-colored Work spans.

     dune exec bin/trace.exe -- --workload fig5 --p 4 --out trace.json
     dune exec bin/trace.exe -- --workload multi --p 8 --summary-only
     dune exec bin/trace.exe -- --workload fig5 --snapshot live.jsonl

   The workload plumbing lives in bin/workloads.ml, shared with
   schedview.exe. Any malformed flag (unknown workload, non-integer
   --p, ...) exits 2 via [bad]. *)

(* ---- driver ---- *)

let main workload overhead p n seed out summary summary_only snapshot =
  let snap_oc = Option.map open_out snapshot in
  let sim_rc, metrics, _w =
    Workloads.run_sim ?snapshot_oc:snap_oc workload ~p ~n ~seed ~overhead
  in
  let rt_rc =
    Workloads.run_runtime ?snapshot_oc:snap_oc workload ~p ~n ~seed
  in
  Option.iter close_out snap_oc;
  let sim_sum = Obs.Summary.of_recorder sim_rc in
  let rt_sum = Obs.Summary.of_recorder rt_rc in
  Printf.printf
    "sim:     makespan %d steps, %d batches, %d events (max batches-while-pending %d)\n"
    metrics.Sim.Metrics.makespan metrics.Sim.Metrics.batches
    sim_sum.Obs.Summary.events
    sim_sum.Obs.Summary.max_batches_seen;
  Printf.printf
    "runtime: %d batches, %d events (max batches-while-pending %d — reported, not asserted)\n"
    rt_sum.Obs.Summary.batches rt_sum.Obs.Summary.events rt_sum.Obs.Summary.max_batches_seen;
  (match (out, summary_only) with
  | Some path, false ->
      Obs.Chrome.write_file ~path
        [
          { Obs.Chrome.pid = 1; name = "sim (1 step = 1us)"; recording = sim_rc };
          { Obs.Chrome.pid = 2; name = "runtime (wall clock)"; recording = rt_rc };
        ];
      Printf.printf "wrote %s\n" path
  | Some path, true ->
      Printf.printf "--summary-only: skipping Chrome trace %s\n" path
  | None, _ -> ());
  Option.iter (fun path -> Printf.printf "snapshots -> %s\n" path) snapshot;
  if summary || summary_only then begin
    Format.printf "@.---- simulator ----@.%a" Obs.Summary.pp sim_sum;
    Format.printf "@.---- real runtime ----@.%a" Obs.Summary.pp rt_sum;
    Format.print_flush ()
  end;
  0

(* Hand-rolled CLI: cmdliner cannot spell the documented [--p] (it maps
   single-character names to [-p] only), so the flags here are parsed
   directly. Every option also accepts the [--flag=value] form. *)

let usage () =
  prerr_endline
    "usage: trace [--workload fig5|counter|multi] [--model tree|fused|none]\n\
    \             [--p P] [--n N] [--seed S] [--out trace.json]\n\
    \             [--summary] [--summary-only] [--snapshot live.jsonl]\n\n\
     Runs the workload through the simulator (1 timestep = 1us) and the\n\
     real runtime, and writes both as one Chrome trace-event JSON.\n\
    \  --workload      fig5 (skip-list inserts, default) | counter | multi\n\
    \  --model         simulator LAUNCHBATCH overhead: tree (default) | fused | none\n\
    \  --p             worker count for both runs (default 4)\n\
    \  --n             operation count (default 200)\n\
    \  --seed          scheduler seed (default 1)\n\
    \  --out           write the combined Chrome trace to PATH\n\
    \  --summary       print aggregated histograms for both runs\n\
    \  --summary-only  print the histograms and skip Chrome JSON emission\n\
    \  --snapshot      stream live counter-delta JSONL to PATH (tail -f it)"

let () =
  let workload = ref Workloads.Fig5 in
  let overhead = ref Sim.Batcher.Tree_setup in
  let p = ref 4 in
  let n = ref 200 in
  let seed = ref 1 in
  let out = ref None in
  let summary = ref false in
  let summary_only = ref false in
  let snapshot = ref None in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline ("trace: " ^ m); usage (); exit 2) fmt in
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
        | "--out" | "-o" -> value rest (fun v rest -> out := Some v; go rest)
        | "--snapshot" -> value rest (fun v rest -> snapshot := Some v; go rest)
        | "--summary" -> summary := true; go rest
        | "--summary-only" -> summary_only := true; go rest
        | "--help" | "-h" -> usage (); exit 0
        | _ -> bad "unknown option %S" arg)
  in
  go (List.tl args);
  if !p < 1 then bad "--p must be >= 1";
  if !n < 1 then bad "--n must be >= 1";
  exit (main !workload !overhead !p !n !seed !out !summary !summary_only !snapshot)
