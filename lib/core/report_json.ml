(* JSON mirrors of Report's tables. Field names are part of the stable
   BENCH_results.json schema (EXPERIMENTS.md) — rename with care. *)

open Obs.Json

let obj = fun fields -> Obj fields
let rows conv l = List (List.map conv l)

let fig5 l =
  rows
    (fun (r : Experiments.fig5_row) ->
      obj
        [
          ("initial_size", Int r.initial);
          ("seq_throughput", Float r.seq_throughput);
          ( "batcher",
            List
              (List.map
                 (fun (p, mean, stddev) ->
                   obj
                     [
                       ("p", Int p);
                       ("mean_throughput", Float mean);
                       ("stddev", Float stddev);
                     ])
                 r.batcher) );
        ])
    l

let flatcomb l =
  rows
    (fun (r : Experiments.flatcomb_row) ->
      obj
        [
          ("p", Int r.fc_p);
          ("batcher_throughput", Float r.batcher_tp);
          ("flatcomb_throughput", Float r.flatcomb_tp);
          ("seq_throughput", Float r.seq_tp);
        ])
    l

let example l =
  rows
    (fun (r : Experiments.example_row) ->
      obj
        [
          ("p", Int r.ex_p);
          ("batcher_makespan", Int r.batcher_makespan);
          ("lock_makespan", Int r.lock_makespan);
          ("cas_makespan", Int r.cas_makespan);
          ("seq_makespan", Int r.seq_makespan);
          ("bound_ratio", Float r.bound_ratio);
        ])
    l

let theory l =
  rows
    (fun (r : Experiments.theory_row) ->
      obj
        [
          ("structure", Str r.th_ds);
          ("workload", Str r.th_workload);
          ("p", Int r.th_p);
          ("measured_makespan", Int r.measured);
          ("predicted_makespan", Int r.predicted);
          ("ratio", Float r.ratio);
        ])
    l

let theorem3 l =
  rows
    (fun (r : Experiments.tau_row) ->
      obj
        [
          ("p", Int r.t3_p);
          ("tau", Int r.t3_tau);
          ("long_batches", Int r.t3_long_batches);
          ("trimmed_span", Int r.t3_trimmed_span);
          ("measured_makespan", Int r.t3_measured);
          ("predicted_makespan", Int r.t3_predicted);
          ("ratio", Float r.t3_ratio);
        ])
    l

let lemma2 l =
  rows
    (fun (r : Experiments.lemma2_row) ->
      obj
        [
          ("workload", Str r.l2_workload);
          ("p", Int r.l2_p);
          ("max_trapped_batches", Int r.max_trapped_batches);
        ])
    l

let ablation l =
  rows
    (fun (r : Experiments.ablation_row) ->
      obj
        [
          ("variant", Str r.ab_variant);
          ("p", Int r.ab_p);
          ("makespan", Int r.ab_makespan);
          ("steals", Int r.ab_steals);
          ("batches", Int r.ab_batches);
        ])
    l

let pthreaded l =
  rows
    (fun (r : Experiments.pthread_row) ->
      obj
        [
          ("threads", Int r.pt_threads);
          ("batcher_makespan", Int r.pt_batcher);
          ("lock_makespan", Int r.pt_lock);
          ("seq_makespan", Int r.pt_seq);
        ])
    l

let multi l =
  rows
    (fun (r : Experiments.multi_row) ->
      obj
        [
          ("p", Int r.mu_p);
          ("batcher_makespan", Int r.mu_batcher);
          ("lock_makespan", Int r.mu_lock);
          ("seq_makespan", Int r.mu_seq);
          ("batches", Int r.mu_batches);
        ])
    l

let granularity l =
  rows
    (fun (r : Experiments.granularity_row) ->
      obj
        [
          ("records_per_node", Int r.g_records_per_node);
          ("p", Int r.g_p);
          ("throughput", Float r.g_throughput);
          ("seq_throughput", Float r.g_seq_throughput);
        ])
    l

let micro l =
  rows
    (fun (name, ns) -> obj [ ("benchmark", Str name); ("ns_per_run", Float ns) ])
    l

let header ~generated_by ~quick ~only =
  [
    ("schema_version", Int 1);
    ("generated_by", Str generated_by);
    ("quick", Bool quick);
    ("only", match only with None -> Null | Some o -> Str o);
  ]

let results_file ~quick ~only experiments =
  obj
    (header ~generated_by:"bench/main.exe" ~quick ~only
    @ [
        ( "experiments",
          List
            (List.map
               (fun (id, title, rows) ->
                 obj [ ("id", Str id); ("title", Str title); ("rows", rows) ])
               experiments) );
      ])

let write_file ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      write buf json;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)

let read_file path =
  if not (Sys.file_exists path) then None
  else
    match parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok (Obj fields) -> Some fields
    | Ok _ | Error _ -> None

let merge_experiments ~path ~generated_by ~quick exps =
  let id e = match member "id" e with Some (Str s) -> Some s | _ -> None in
  let ids = List.filter_map id exps in
  let replaced e = match id e with Some s -> List.mem s ids | None -> false in
  let fields =
    match read_file path with
    | Some fields -> fields
    | None -> header ~generated_by ~quick ~only:None
  in
  let kept =
    match List.assoc_opt "experiments" fields with
    | Some (List l) -> List.filter (fun e -> not (replaced e)) l
    | _ -> []
  in
  let merged = ("experiments", List (kept @ exps)) in
  let fields =
    if List.mem_assoc "experiments" fields then
      List.map (fun (k, v) -> if k = "experiments" then merged else (k, v)) fields
    else fields @ [ merged ]
  in
  write_file ~path (Obj fields)
