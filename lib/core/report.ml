let hr fmt = Format.fprintf fmt "%s@." (String.make 78 '-')

let size_label n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then Printf.sprintf "%dM" (n / 1_000_000)
  else if n >= 1_000 && n mod 1_000 = 0 then Printf.sprintf "%dK" (n / 1_000)
  else string_of_int n

let fig5 fmt (rows : Experiments.fig5_row list) =
  Format.fprintf fmt "E1 / Figure 5: skip-list insertion throughput (records per timestep)@.";
  Format.fprintf fmt "               BATCHER at P workers vs sequential list (SEQ)@.";
  hr fmt;
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf fmt "%10s %10s" "initial" "SEQ";
      List.iter (fun (p, _, _) -> Format.fprintf fmt " %9s" (Printf.sprintf "BAT p=%d" p)) first.Experiments.batcher;
      Format.fprintf fmt "@.");
  List.iter
    (fun (r : Experiments.fig5_row) ->
      Format.fprintf fmt "%10s %10.4f" (size_label r.Experiments.initial) r.Experiments.seq_throughput;
      List.iter (fun (_, tp, _) -> Format.fprintf fmt " %9.4f" tp) r.Experiments.batcher;
      Format.fprintf fmt "@.")
    rows;
  (* Speedup summary as the paper quotes it (BATCHER p / BATCHER 1). *)
  Format.fprintf fmt "@.self-speedup of BATCHER (vs its own P=1):@.";
  List.iter
    (fun (r : Experiments.fig5_row) ->
      match r.Experiments.batcher with
      | (1, base, _) :: _ when base > 0.0 ->
          Format.fprintf fmt "%10s" (size_label r.Experiments.initial);
          List.iter
            (fun (p, tp, _) -> Format.fprintf fmt "  p=%d:%5.2fx" p (tp /. base))
            r.Experiments.batcher;
          Format.fprintf fmt "@."
      | _ -> ())
    rows;
  (* Seed sensitivity: the largest coefficient of variation over all
     points (typically well under 1%). *)
  let max_cv =
    List.fold_left
      (fun acc (r : Experiments.fig5_row) ->
        List.fold_left
          (fun acc (_, mean, std) -> if mean > 0.0 then max acc (std /. mean) else acc)
          acc r.Experiments.batcher)
      0.0 rows
  in
  Format.fprintf fmt "@.max stddev/mean across seeds: %.3f%%@." (100.0 *. max_cv)

let fig5_rt_header fmt ~records =
  Format.fprintf fmt
    "E1 on the runtime: %d fresh inserts, %d records per BATCHIFY, lists built \
     from random keys@."
    records Experiments.fig5_rt_records_per_node;
  Format.fprintf fmt "%9s %3s %9s %9s %8s %10s@." "initial" "P" "SEQ ms" "BAT ms" "BAT/SEQ"
    "words/rec"

let fig5_rt_row fmt (r : Experiments.fig5_rt_row) =
  Format.fprintf fmt "%9d %3d %9.1f %9.1f %8.2f %10.1f%s@." r.Experiments.rt_initial
    r.Experiments.rt_p (1000. *. r.Experiments.seq_s) (1000. *. r.Experiments.bat_s)
    (r.Experiments.seq_s /. r.Experiments.bat_s)
    r.Experiments.words_per_record
    (if r.Experiments.agree then "" else "  KEY SET DIFFERS FROM SEQ")

let shard_scaling fmt (rows : Experiments.shard_row list) =
  Format.fprintf fmt
    "M3: sharded BATCHIFY on the runtime, each BOP sleeping %g ms / K; best of %d \
     runs@."
    (1000. *. Experiments.shard_scaling_service_s)
    Experiments.shard_scaling_reps;
  hr fmt;
  Format.fprintf fmt "%3s %8s %6s %11s %11s %7s %6s %8s %10s@." "K" "workers" "ops" "ns"
    "ops/s" "vs K=1" "cv%" "batches" "max_batch";
  let base = match rows with r :: _ -> r.Experiments.sk_ns | [] -> 0 in
  List.iter
    (fun (r : Experiments.shard_row) ->
      let ns = float_of_int r.Experiments.sk_ns in
      Format.fprintf fmt "%3d %8d %6d %11d %11.0f %6.2fx %6.1f %8d %10d%s@."
        r.Experiments.sk_shards r.Experiments.sk_workers r.Experiments.sk_ops
        r.Experiments.sk_ns
        (float_of_int r.Experiments.sk_ops *. 1e9 /. ns)
        (float_of_int base /. ns) (100. *. r.Experiments.sk_cv) r.Experiments.sk_batches
        r.Experiments.sk_max_batch
        (if r.Experiments.sk_agree then "" else "  MISMATCH"))
    rows

let flatcomb fmt rows =
  Format.fprintf fmt "E2: BATCHER vs flat combining vs SEQ (skip-list, throughput)@.";
  hr fmt;
  Format.fprintf fmt "%4s %12s %12s %12s@." "P" "BATCHER" "FLATCOMB" "SEQ";
  List.iter
    (fun (r : Experiments.flatcomb_row) ->
      Format.fprintf fmt "%4d %12.4f %12.4f %12.4f@." r.Experiments.fc_p
        r.Experiments.batcher_tp r.Experiments.flatcomb_tp r.Experiments.seq_tp)
    rows

let example ~name fmt rows =
  Format.fprintf fmt "%s: BATCHER vs lock-serialized concurrent vs SEQ (makespan, lower is better)@." name;
  hr fmt;
  Format.fprintf fmt "%4s %12s %12s %12s %12s %12s@." "P" "BATCHER" "MUTEX"
    "CAS-CONT" "SEQ" "meas/bound";
  List.iter
    (fun (r : Experiments.example_row) ->
      Format.fprintf fmt "%4d %12d %12d %12d %12d %12.3f@." r.Experiments.ex_p
        r.Experiments.batcher_makespan r.Experiments.lock_makespan
        r.Experiments.cas_makespan r.Experiments.seq_makespan
        r.Experiments.bound_ratio)
    rows

let theory fmt rows =
  Format.fprintf fmt "E6: Theorem 1 validation (measured makespan / predicted bound)@.";
  hr fmt;
  Format.fprintf fmt "%-10s %-18s %4s %12s %12s %8s@." "structure" "workload" "P"
    "measured" "predicted" "ratio";
  List.iter
    (fun (r : Experiments.theory_row) ->
      Format.fprintf fmt "%-10s %-18s %4d %12d %12d %8.3f@." r.Experiments.th_ds
        r.Experiments.th_workload r.Experiments.th_p r.Experiments.measured
        r.Experiments.predicted r.Experiments.ratio)
    rows;
  let ratios = List.map (fun (r : Experiments.theory_row) -> r.Experiments.ratio) rows in
  match ratios with
  | [] -> ()
  | _ ->
      let arr = Array.of_list ratios in
      let s = Util.Stats.summarize arr in
      Format.fprintf fmt "@.ratio: mean %.3f, min %.3f, max %.3f (Theorem 1 holds iff bounded by O(1))@."
        s.Util.Stats.mean s.Util.Stats.min s.Util.Stats.max

let theorem3 fmt rows =
  Format.fprintf fmt
    "E8: Theorem 3 validation — measured makespan vs (T1+W+n·τ)/P + T∞ + S_τ + m·τ@.";
  Format.fprintf fmt "     (W and the τ-trimmed span S_τ are measured from the batch log)@.";
  hr fmt;
  Format.fprintf fmt "%4s %8s %10s %12s %12s %12s %8s@." "P" "tau" "long" "S_tau"
    "measured" "predicted" "ratio";
  List.iter
    (fun (r : Experiments.tau_row) ->
      Format.fprintf fmt "%4d %8d %10d %12d %12d %12d %8.3f@." r.Experiments.t3_p
        r.Experiments.t3_tau r.Experiments.t3_long_batches
        r.Experiments.t3_trimmed_span r.Experiments.t3_measured
        r.Experiments.t3_predicted r.Experiments.t3_ratio)
    rows;
  let ratios = List.map (fun (r : Experiments.tau_row) -> r.Experiments.t3_ratio) rows in
  match ratios with
  | [] -> ()
  | _ ->
      let s = Util.Stats.summarize (Array.of_list ratios) in
      Format.fprintf fmt "@.ratio: mean %.3f, min %.3f, max %.3f — bounded for every τ ≥ lg P@."
        s.Util.Stats.mean s.Util.Stats.min s.Util.Stats.max

let lemma2 fmt rows =
  Format.fprintf fmt "E7: Lemma 2 — max batches executing while any op is pending (bound: 2)@.";
  hr fmt;
  Format.fprintf fmt "%-20s %4s %8s@." "workload" "P" "max";
  List.iter
    (fun (r : Experiments.lemma2_row) ->
      Format.fprintf fmt "%-20s %4d %8d@." r.Experiments.l2_workload r.Experiments.l2_p
        r.Experiments.max_trapped_batches)
    rows

let ablation ~name fmt rows =
  Format.fprintf fmt "%s (skip-list workload; lower makespan is better)@." name;
  hr fmt;
  Format.fprintf fmt "%-14s %4s %12s %12s %10s@." "variant" "P" "makespan" "steals" "batches";
  List.iter
    (fun (r : Experiments.ablation_row) ->
      Format.fprintf fmt "%-14s %4d %12d %12d %10d@." r.Experiments.ab_variant
        r.Experiments.ab_p r.Experiments.ab_makespan r.Experiments.ab_steals
        r.Experiments.ab_batches)
    rows

let pthreaded fmt rows =
  Format.fprintf fmt
    "E9: statically threaded programs over a batched skip list (makespan)@.";
  hr fmt;
  Format.fprintf fmt "%8s %12s %12s %12s@." "threads" "BATCHER" "MUTEX" "SEQ";
  List.iter
    (fun (r : Experiments.pthread_row) ->
      Format.fprintf fmt "%8d %12d %12d %12d@." r.Experiments.pt_threads
        r.Experiments.pt_batcher r.Experiments.pt_lock r.Experiments.pt_seq)
    rows

let multi fmt rows =
  Format.fprintf fmt
    "E10: three implicitly batched structures in one program (makespan)@.";
  hr fmt;
  Format.fprintf fmt "%4s %12s %12s %12s %10s@." "P" "BATCHER" "MUTEX" "SEQ" "batches";
  List.iter
    (fun (r : Experiments.multi_row) ->
      Format.fprintf fmt "%4d %12d %12d %12d %10d@." r.Experiments.mu_p
        r.Experiments.mu_batcher r.Experiments.mu_lock r.Experiments.mu_seq
        r.Experiments.mu_batches)
    rows

let granularity fmt rows =
  Format.fprintf fmt
    "A5: records per BATCHIFY call (skip-list; throughput, higher is better)@.";
  hr fmt;
  Format.fprintf fmt "%12s %4s %12s %12s@." "records/call" "P" "BATCHER" "SEQ";
  List.iter
    (fun (r : Experiments.granularity_row) ->
      Format.fprintf fmt "%12d %4d %12.4f %12.4f@." r.Experiments.g_records_per_node
        r.Experiments.g_p r.Experiments.g_throughput r.Experiments.g_seq_throughput)
    rows
