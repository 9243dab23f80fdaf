(* Compare two BENCH_results.json files and print throughput deltas.

   Usage: bench_diff.exe [--gate-p99 PCT] OLD.json NEW.json

   Experiments are matched by id; rows are matched by the signature of
   their non-metric fields (every field except the recognized metric
   keys), so the tool needs no per-experiment schema knowledge. For
   each matched row it prints old vs. new for the metric fields it
   knows ("ops_per_sec" and "throughput" count up, "ns", "ns_per_run"
   and "makespan" count down) with a percent delta. Rows present on
   only one side are listed, not diffed.

   Exits 0 by default — a reporting tool, not a gate — unless a gate
   flag is given:

   --gate-p99 PCT turns the service rows' tail into CI teeth: exit 1
   when any matched row's "p99_ns" grew by more than PCT percent. p99
   is the gated percentile deliberately: p50 moves with load-point luck
   and p999 of a short run is a handful of samples, while a p99 shift
   is what a real batching/scheduling regression looks like in the SVC
   rows.

   --gate-m1 PCT is its submit-path mirror: exit 1 when any matched M1
   row's "ops_per_sec" fell by more than PCT percent. M1 is the
   contended-batchify microbenchmark, the workload every batch-path
   change targets; rows are matched by full signature (worker count and
   op count), so a regression in any worker-count cell trips the gate
   even if another cell improved. *)

let metric_keys =
  (* key, higher_is_better *)
  [
    ("ops_per_sec", true);
    ("throughput", true);
    ("ns", false);
    ("ns_per_run", false);
    ("makespan", false);
    ("minor_words_per_op", false);
    (* Theorem-1 bucket decomposition (bench ATTRIB rows): lower is
       better for every bucket — core/batch/setup growth means more
       work executed for the same workload, idle/wait/sched growth
       means the same work scheduled worse. *)
    (* Sharded K-sweep (micro M3 rows): the headline is throughput
       relative to the unsharded baseline. Batch counts are metrics
       (not identity) so rows keep matching across runs — fewer,
       fuller batches amortize setup better. *)
    ("speedup_vs_k1", true);
    ("total_batches", false);
    ("max_batch", true);
    ("span_realized", false);
    ("attrib_core", false);
    ("attrib_batch", false);
    ("attrib_setup", false);
    ("attrib_sched", false);
    ("attrib_idle", false);
    ("attrib_wait", false);
    (* Service rows (SVC): per-op-class latency digests and goodput
       from the open-loop drivers. "requests" is a metric (not
       identity) because the runtime leg's request count follows the
       seeded arrival draw, not the config. *)
    ("goodput", true);
    ("requests", true);
    ("p50_ns", false);
    ("p99_ns", false);
    ("p999_ns", false);
    (* Bool, never diffed numerically — listed so the small-sample
       p999 annotation stays out of the row signature. *)
    ("p999_approx", false);
    ("mean_ns", false);
    ("max_ns", false);
    ("max_batches_seen", false);
    (* Offered-load sweep rows (SVC_LOAD): each grid point reports its
       offered rate, what was actually delivered, and the share of
       total latency per phase; the per-(mode, K) knee row carries the
       headline knee_req_s that --gate-knee defends. Shares are
       attribution, not quality — direction is informational except
       exec (more of the latency being actual batch work is good). *)
    ("offered_req_s", true);
    ("knee_req_s", true);
    ("knee_mult", true);
    (* Bool, never diffed numerically — a (mode, K) whose every swept
       multiplier failed to keep up emits an explicit absent-knee row;
       listed so the verdict stays out of the row signature.
       --gate-knee treats a new absent knee as a trip. *)
    ("knee_absent", false);
    ("share_queue", false);
    ("share_sched", false);
    ("share_pending", false);
    ("share_exec", true);
    (* Causal what-if rows (CAUSAL): per-(phase, speedup) virtual-
       speedup deltas — d_* are fractional improvements (higher is
       better), bound_ns is the cell's Theorem-1 service budget,
       share_predicted/divergence are the shares-vs-sensitivity
       comparison (attribution, direction informational). *)
    ("bound_ns", false);
    ("d_mean", true);
    ("d_p99", true);
    ("d_goodput", true);
    ("d_bound", true);
    ("share_predicted", false);
    ("divergence", false);
  ]

let is_metric k = List.mem_assoc k metric_keys

let die msg =
  prerr_endline msg;
  exit 2

let load path =
  let ic = try open_in_bin path with Sys_error e -> die e in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> die (Printf.sprintf "%s: parse error: %s" path e)

let experiments j =
  match Obs.Json.member "experiments" j with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun e ->
          match (Obs.Json.member "id" e, Obs.Json.member "rows" e) with
          | Some (Obs.Json.Str id), Some (Obs.Json.List rows) -> Some (id, rows)
          | _ -> None)
        l
  | _ -> die "no \"experiments\" array found"

(* A row's identity: its non-metric scalar fields, rendered in order. *)
let signature row =
  match row with
  | Obs.Json.Obj fields ->
      fields
      |> List.filter (fun (k, _) -> not (is_metric k))
      |> List.map (fun (k, v) ->
             Printf.sprintf "%s=%s" k (Obs.Json.to_string v))
      |> String.concat " "
  | _ -> Obs.Json.to_string row

let metrics row =
  match row with
  | Obs.Json.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          if is_metric k then
            Option.map (fun f -> (k, f)) (Obs.Json.to_float_opt v)
          else None)
        fields
  | _ -> []

let pct_delta ~old_v ~new_v =
  if old_v = 0.0 then nan else 100.0 *. (new_v -. old_v) /. old_v

let gate_p99 : float option ref = ref None
let p99_breaches : string list ref = ref []
let gate_m1 : float option ref = ref None
let m1_breaches : string list ref = ref []
let gate_knee : float option ref = ref None
let knee_breaches : string list ref = ref []

let diff_rows id old_rows new_rows =
  let old_tbl = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace old_tbl (signature r) r) old_rows;
  let matched = ref 0 in
  List.iter
    (fun nr ->
      let sg = signature nr in
      match Hashtbl.find_opt old_tbl sg with
      | None -> Printf.printf "  %s | %-40s  (new row)\n" id sg
      | Some orow ->
          incr matched;
          Hashtbl.remove old_tbl sg;
          (* A knee that vanished outright: every swept multiplier of
             this (mode, K) fell short. knee_req_s is 0 on both sides
             once the old run was also saturated (delta nan), so the
             numeric gate alone would let a persistently saturated
             configuration through silently. *)
          (match !gate_knee with
          | Some _
            when Obs.Json.member "knee_absent" nr
                 = Some (Obs.Json.Bool true) ->
              knee_breaches :=
                Printf.sprintf
                  "%s | %s: no swept rate kept up (knee absent)" id sg
                :: !knee_breaches
          | _ -> ());
          let om = metrics orow and nm = metrics nr in
          List.iter
            (fun (k, new_v) ->
              match List.assoc_opt k om with
              | None -> ()
              | Some old_v ->
                  let up = List.assoc k metric_keys in
                  let d = pct_delta ~old_v ~new_v in
                  let better = if up then d >= 0.0 else d <= 0.0 in
                  (match !gate_p99 with
                  | Some pct when k = "p99_ns" && (not (Float.is_nan d)) && d > pct
                    ->
                      p99_breaches :=
                        Printf.sprintf "%s | %s: p99 %.0fns -> %.0fns (%+.1f%% > %g%%)"
                          id sg old_v new_v d pct
                        :: !p99_breaches
                  | _ -> ());
                  (match !gate_knee with
                  | Some pct
                    when k = "knee_req_s"
                         && (not (Float.is_nan d))
                         && d < -.pct ->
                      knee_breaches :=
                        Printf.sprintf
                          "%s | %s: knee %.0f req/s -> %.0f (%+.1f%% < -%g%%)"
                          id sg old_v new_v d pct
                        :: !knee_breaches
                  | _ -> ());
                  (match !gate_m1 with
                  | Some pct
                    when id = "M1" && k = "ops_per_sec"
                         && (not (Float.is_nan d))
                         && d < -.pct ->
                      m1_breaches :=
                        Printf.sprintf
                          "%s | %s: ops/s %.0f -> %.0f (%+.1f%% < -%g%%)" id sg
                          old_v new_v d pct
                        :: !m1_breaches
                  | _ -> ());
                  Printf.printf
                    "  %s | %-40s  %s: %14.1f -> %14.1f  %+7.1f%% %s\n" id sg
                    k old_v new_v d
                    (if Float.is_nan d || d = 0.0 then ""
                     else if better then "(better)"
                     else "(worse)"))
            nm)
    new_rows;
  Hashtbl.iter
    (fun sg _ -> Printf.printf "  %s | %-40s  (row removed)\n" id sg)
    old_tbl;
  !matched

let () =
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--gate-p99" :: v :: rest -> (
        match float_of_string_opt v with
        | Some pct when pct >= 0.0 ->
            gate_p99 := Some pct;
            parse rest
        | _ -> die (Printf.sprintf "--gate-p99 expects a percentage, got %S" v))
    | "--gate-m1" :: v :: rest -> (
        match float_of_string_opt v with
        | Some pct when pct >= 0.0 ->
            gate_m1 := Some pct;
            parse rest
        | _ -> die (Printf.sprintf "--gate-m1 expects a percentage, got %S" v))
    | "--gate-knee" :: v :: rest -> (
        match float_of_string_opt v with
        | Some pct when pct >= 0.0 ->
            gate_knee := Some pct;
            parse rest
        | _ ->
            die (Printf.sprintf "--gate-knee expects a percentage, got %S" v))
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        die (Printf.sprintf "unknown option %s" a)
    | a :: rest ->
        positional := a :: !positional;
        parse rest
  in
  parse (Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)));
  let old_path, new_path =
    match List.rev !positional with
    | [ o; n ] -> (o, n)
    | _ ->
        die
          "usage: bench_diff.exe [--gate-p99 PCT] [--gate-m1 PCT] \
           [--gate-knee PCT] OLD.json NEW.json"
  in
  let old_j = load old_path and new_j = load new_path in
  let old_exps = experiments old_j and new_exps = experiments new_j in
  Printf.printf "bench diff: %s -> %s\n" old_path new_path;
  let total = ref 0 in
  List.iter
    (fun (id, new_rows) ->
      match List.assoc_opt id old_exps with
      | None -> Printf.printf "  %s: only in %s\n" id new_path
      | Some old_rows -> total := !total + diff_rows id old_rows new_rows)
    new_exps;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id new_exps) then
        Printf.printf "  %s: only in %s\n" id old_path)
    old_exps;
  Printf.printf "%d row(s) compared\n" !total;
  let tripped = ref false in
  List.iter
    (fun b ->
      tripped := true;
      Printf.printf "GATE p99 regression: %s\n" b)
    (List.rev !p99_breaches);
  List.iter
    (fun b ->
      tripped := true;
      Printf.printf "GATE M1 regression: %s\n" b)
    (List.rev !m1_breaches);
  List.iter
    (fun b ->
      tripped := true;
      Printf.printf "GATE knee regression: %s\n" b)
    (List.rev !knee_breaches);
  if !tripped then exit 1
