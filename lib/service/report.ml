let class_row ~exec ~scenario ~store ~p ~shards ~extra
    (c : Latency.class_stats) =
  Obs.Json.Obj
    ([
       ("exec", Obs.Json.Str exec);
       ("scenario", Obs.Json.Str scenario);
       ("store", Obs.Json.Str store);
       ("p", Obs.Json.Int p);
       ("shards", Obs.Json.Int shards);
       ("cls", Obs.Json.Str c.Latency.cls);
       ("requests", Obs.Json.Int c.Latency.requests);
       ("p50_ns", Obs.Json.Float c.Latency.p50_ns);
       ("p99_ns", Obs.Json.Float c.Latency.p99_ns);
       ("p999_ns", Obs.Json.Float c.Latency.p999_ns);
       (* Listed in bench_diff's metric keys (so it stays out of the
          row signature) but Bool never diffs as a number — it only
          annotates that p999_ns is the observed max of a small
          class. *)
       ("p999_approx", Obs.Json.Bool c.Latency.p999_approx);
       ("mean_ns", Obs.Json.Float c.Latency.mean_ns);
       ("max_ns", Obs.Json.Float c.Latency.max_ns);
     ]
    @ extra)

let rows ~exec ~scenario ~store ~p ~shards ~all_extra classes =
  List.map
    (fun (c : Latency.class_stats) ->
      let extra = if c.Latency.cls = "all" then all_extra else [] in
      class_row ~exec ~scenario ~store ~p ~shards ~extra c)
    classes

let store_name (sc : Scenario.t) =
  let (module S : Store.STORE) = sc.Scenario.store in
  S.name

let rows_of_sim (sc : Scenario.t) (pt : Sim_driver.point) =
  rows ~exec:"sim" ~scenario:sc.Scenario.name ~store:(store_name sc)
    ~p:pt.Sim_driver.p ~shards:pt.Sim_driver.shards
    ~all_extra:
      [
        ("goodput", Obs.Json.Float pt.Sim_driver.goodput);
        ("total_batches", Obs.Json.Int pt.Sim_driver.batches);
        ("max_batch", Obs.Json.Int pt.Sim_driver.max_batch);
        ("max_batches_seen", Obs.Json.Int pt.Sim_driver.max_batches_seen);
      ]
    pt.Sim_driver.classes

let rows_of_rt (sc : Scenario.t) (pt : Rt_driver.point) =
  List.map
    (fun (c : Latency.class_stats) ->
      let extra =
        if c.Latency.cls = "all" then
          [
            ("goodput", Obs.Json.Float pt.Rt_driver.goodput);
            ("total_batches", Obs.Json.Int pt.Rt_driver.batches);
            ("max_batch", Obs.Json.Int pt.Rt_driver.max_batch);
          ]
        else []
      in
      class_row ~exec:"runtime" ~scenario:sc.Scenario.name
        ~store:(store_name sc) ~p:pt.Rt_driver.workers
        ~shards:pt.Rt_driver.shards
        ~extra
        c)
    pt.Rt_driver.classes

let row_scenario row =
  match Obs.Json.member "scenario" row with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* Keep the experiment's rows of other scenarios, then replace the whole
   experiment record. *)
let merge_experiment ~path ~id ~title ~scenario new_rows =
  let kept_rows =
    match
      Option.bind
        (Batcher_core.Report_json.read_file path)
        (List.assoc_opt "experiments")
    with
    | Some (Obs.Json.List exps) ->
        List.concat_map
          (fun e ->
            match (Obs.Json.member "id" e, Obs.Json.member "rows" e) with
            | Some (Obs.Json.Str i), Some (Obs.Json.List rows) when i = id ->
                List.filter (fun r -> row_scenario r <> Some scenario) rows
            | _ -> [])
          exps
    | _ -> []
  in
  Batcher_core.Report_json.merge_experiments ~path ~generated_by:"bin/service.exe"
    ~quick:false
    [
      Obs.Json.Obj
        [
          ("id", Obs.Json.Str id);
          ("title", Obs.Json.Str title);
          ("rows", Obs.Json.List (kept_rows @ new_rows));
        ];
    ]

let merge_svc ~path ~scenario new_rows =
  merge_experiment ~path ~id:"SVC"
    ~title:
      "SVC — open-loop service: end-to-end tail latency, sim P-sweep + \
       runtime K-sweep"
    ~scenario new_rows

let merge_svc_load ~path ~scenario new_rows =
  merge_experiment ~path ~id:"SVC_LOAD"
    ~title:
      "SVC_LOAD — latency vs offered load: rate-multiplier sweep with \
       per-phase attribution and the throughput knee"
    ~scenario new_rows

let merge_causal ~path ~scenario new_rows =
  merge_experiment ~path ~id:"CAUSAL"
    ~title:
      "CAUSAL — what-if profile: virtual speedups per phase, measured \
       sensitivity vs phase share vs Theorem-1 bound"
    ~scenario new_rows
