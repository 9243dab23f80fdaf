(* Per-request tail anatomy: run one traced service point and show
   where the slowest requests actually spent their time.

     dune exec bin/anatomy.exe -- --scenario standard
     dune exec bin/anatomy.exe -- --scenario smoke --exec sim --trace out.json

   The runtime leg runs Rt_driver with request tracing on: every
   request's release/start/submit/batch/done milestones are
   captured (Obs.Reqtrace), the slowest-K reservoir keeps the K worst
   per op class exactly, and each printed span decomposes its measured
   end-to-end latency into queue-wait, scheduling, pending-wait,
   batch-exec and the post-batch residual — summing exactly to the
   latency, which this tool re-verifies over every captured request
   and reports with exit 1 on any breach. The per-request
   batches-while-pending column (m) is the empirical Lemma-2 figure;
   its per-class max is summarized against the paper's dual-deque
   reference of 2 (reported, not asserted — see DESIGN.md §14).

   --trace OUT.json exports the sampled spans plus every slowest-K
   span as Perfetto trace events: per-class request tracks carry the
   phase slices, worker tracks carry the batch-exec slices, and flow
   arrows link each request's chain across tracks. *)

let usage () =
  prerr_endline
    "usage: anatomy [options]\n\n\
     Runs one traced service point and prints the slowest requests per\n\
     op class with exact phase decompositions.\n\
    \  --scenario NAME  scenario (default standard; see service --list)\n\
    \  --exec MODE      runtime | sim (default runtime)\n\
    \  --shards K       runtime shard count (default: scenario's largest)\n\
    \  --workers N      runtime pool size\n\
    \  --duration S     runtime measured seconds (default: scenario's)\n\
    \  --p N            sim worker count (default: scenario's first)\n\
    \  --top N          slowest requests to print per class (default 10)\n\
    \  --trace PATH     write sampled + slowest-K spans as Perfetto JSON\n\
    \  --quiet          print only the summary and any breach\n\
     Exit status: 0 ok, 1 a span's phases failed to sum to its measured\n\
     latency (conservation breach), 2 usage error."

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("anatomy: " ^ m);
      usage ();
      exit 2)
    fmt

let class_of_index = [| Svc.Gen.Get; Svc.Gen.Put; Svc.Gen.Delete; Svc.Gen.Range |]
let class_name c = Svc.Gen.class_name class_of_index.(c)
let us ns = float_of_int ns /. 1e3

let print_span (s : Obs.Reqtrace.span) =
  Printf.printf
    "    #%-7d %8.1fus = q %7.1f + sched %7.1f + pend %7.1f + exec %7.1f \
     + post %7.1f  m=%-2d  w%d>w%d>w%d\n"
    s.Obs.Reqtrace.token
    (us s.Obs.Reqtrace.latency_ns)
    (us s.Obs.Reqtrace.queue_ns)
    (us s.Obs.Reqtrace.sched_pre_ns)
    (us s.Obs.Reqtrace.pending_ns)
    (us s.Obs.Reqtrace.exec_ns)
    (us s.Obs.Reqtrace.sched_post_ns)
    s.Obs.Reqtrace.batches_seen s.Obs.Reqtrace.w_start s.Obs.Reqtrace.w_batch s.Obs.Reqtrace.w_done

(* ---- Perfetto export ---- *)

let j_ev fields = Obs.Json.Obj fields

let meta ~pid ?tid ~name what =
  j_ev
    ([
       ("name", Obs.Json.Str what);
       ("ph", Obs.Json.Str "M");
       ("pid", Obs.Json.Int pid);
     ]
    @ (match tid with Some t -> [ ("tid", Obs.Json.Int t) ] | None -> [])
    @ [ ("args", Obs.Json.Obj [ ("name", Obs.Json.Str name) ]) ])

let slice ~pid ~tid ~name ~ts_us ~dur_us ?(args = []) () =
  j_ev
    [
      ("name", Obs.Json.Str name);
      ("cat", Obs.Json.Str "req");
      ("ph", Obs.Json.Str "X");
      ("ts", Obs.Json.Float ts_us);
      ("dur", Obs.Json.Float dur_us);
      ("pid", Obs.Json.Int pid);
      ("tid", Obs.Json.Int tid);
      ("args", Obs.Json.Obj args);
    ]

let flow ~ph ~id ~pid ~tid ~ts_us =
  j_ev
    ([
       ("name", Obs.Json.Str "req");
       ("cat", Obs.Json.Str "req");
       ("ph", Obs.Json.Str ph);
       ("id", Obs.Json.Int id);
       ("ts", Obs.Json.Float ts_us);
       ("pid", Obs.Json.Int pid);
       ("tid", Obs.Json.Int tid);
     ]
    @ if ph = "f" then [ ("bp", Obs.Json.Str "e") ] else [])

(* One request = up to five phase slices on its class track, a
   batch-exec slice on the stamping worker's track, and a flow arrow
   linking the two. ts is relative to [t_base] (the earliest exported
   arrival) in microseconds. *)
let span_events ~t_base (s : Obs.Reqtrace.span) =
  let cls_tid = s.Obs.Reqtrace.cls in
  let rel ns = float_of_int (ns - t_base) /. 1e3 in
  let t0 = s.Obs.Reqtrace.arrive_ns in
  let args =
    [
      ("token", Obs.Json.Int s.Obs.Reqtrace.token);
      ("sid", Obs.Json.Int s.Obs.Reqtrace.sid);
      ("batches_seen", Obs.Json.Int s.Obs.Reqtrace.batches_seen);
    ]
  in
  let phases =
    [
      ("queue", t0, s.Obs.Reqtrace.queue_ns);
      ("sched", t0 + s.Obs.Reqtrace.queue_ns, s.Obs.Reqtrace.sched_pre_ns);
      ( "pending",
        t0 + s.Obs.Reqtrace.queue_ns + s.Obs.Reqtrace.sched_pre_ns,
        s.Obs.Reqtrace.pending_ns );
      ( "exec",
        t0 + s.Obs.Reqtrace.queue_ns + s.Obs.Reqtrace.sched_pre_ns
        + s.Obs.Reqtrace.pending_ns,
        s.Obs.Reqtrace.exec_ns );
      ( "sched_post",
        t0 + s.Obs.Reqtrace.queue_ns + s.Obs.Reqtrace.sched_pre_ns
        + s.Obs.Reqtrace.pending_ns + s.Obs.Reqtrace.exec_ns,
        s.Obs.Reqtrace.sched_post_ns );
    ]
  in
  let exec_at =
    t0 + s.Obs.Reqtrace.queue_ns + s.Obs.Reqtrace.sched_pre_ns
    + s.Obs.Reqtrace.pending_ns
  in
  List.filter_map
    (fun (name, at, dur) ->
      if dur <= 0 then None
      else
        Some
          (slice ~pid:0 ~tid:cls_tid ~name ~ts_us:(rel at)
             ~dur_us:(float_of_int dur /. 1e3)
             ~args ()))
    phases
  @ [
      slice ~pid:1 ~tid:s.Obs.Reqtrace.w_batch
        ~name:(Printf.sprintf "batch sid=%d" s.Obs.Reqtrace.sid)
        ~ts_us:(rel exec_at)
        ~dur_us:(float_of_int (max 1 s.Obs.Reqtrace.exec_ns) /. 1e3)
        ~args ();
      flow ~ph:"s" ~id:s.Obs.Reqtrace.token ~pid:0 ~tid:cls_tid
        ~ts_us:(rel t0);
      flow ~ph:"f" ~id:s.Obs.Reqtrace.token ~pid:1
        ~tid:s.Obs.Reqtrace.w_batch ~ts_us:(rel exec_at);
    ]

let write_trace ~path ~workers spans =
  match spans with
  | [] -> Printf.printf "[anatomy] no spans to export; %s not written\n" path
  | _ ->
      let t_base =
        List.fold_left
          (fun acc (s : Obs.Reqtrace.span) ->
            min acc s.Obs.Reqtrace.arrive_ns)
          max_int spans
      in
      let metas =
        meta ~pid:0 ~name:"requests (per op class)" "process_name"
        :: List.init (Array.length class_of_index) (fun c ->
               meta ~pid:0 ~tid:c ~name:(class_name c) "thread_name")
        @ meta ~pid:1 ~name:"workers (batch exec)" "process_name"
          :: List.init workers (fun w ->
                 meta ~pid:1 ~tid:w
                   ~name:(Printf.sprintf "worker %d" w)
                   "thread_name")
      in
      let events =
        metas @ List.concat_map (span_events ~t_base) spans
      in
      let json =
        Obs.Json.Obj
          [
            ("traceEvents", Obs.Json.List events);
            ("displayTimeUnit", Obs.Json.Str "ms");
          ]
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Obs.Json.to_string json));
      Printf.printf "[anatomy] wrote %d trace events for %d spans to %s\n"
        (List.length events) (List.length spans) path

let () =
  let scenario = ref "standard" in
  let exec = ref "runtime" in
  let shards = ref None in
  let workers = ref None in
  let duration = ref None in
  let p = ref None in
  let top = ref 10 in
  let trace_path = ref None in
  let quiet = ref false in
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec go = function
    | [] -> ()
    | "--scenario" :: v :: rest ->
        scenario := v;
        go rest
    | "--exec" :: v :: rest ->
        if v <> "runtime" && v <> "sim" then
          die "--exec expects runtime|sim, got %S" v;
        exec := v;
        go rest
    | "--shards" :: v :: rest -> (
        match int_of_string_opt v with
        | Some k when k >= 1 ->
            shards := Some k;
            go rest
        | _ -> die "--shards expects a positive integer, got %S" v)
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
    | "--p" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            p := Some n;
            go rest
        | _ -> die "--p expects a positive integer, got %S" v)
    | "--top" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            top := n;
            go rest
        | _ -> die "--top expects a positive integer, got %S" v)
    | "--trace" :: v :: rest ->
        trace_path := Some v;
        go rest
    | "--quiet" :: rest ->
        quiet := true;
        go rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ -> die "unknown argument %s" arg
  in
  go args;
  let sc =
    match Svc.Scenario.find !scenario with
    | Some sc -> sc
    | None ->
        die "unknown scenario %S (have: %s)" !scenario
          (String.concat ", " (Svc.Scenario.names ()))
  in
  let trace, n_workers, label =
    if !exec = "runtime" then begin
      let shards =
        match !shards with
        | Some k -> k
        | None -> (
            match List.rev sc.Svc.Scenario.rt_shards with
            | k :: _ -> k
            | [] -> 1)
      in
      let pt =
        Svc.Rt_driver.run_point ?workers:!workers ?duration_s:!duration
          ~trace:true sc ~shards
      in
      if not !quiet then
        Printf.printf
          "[anatomy] runtime: %s K=%d P=%d n=%d goodput=%.0f req/s\n"
          sc.Svc.Scenario.name shards pt.Svc.Rt_driver.workers
          pt.Svc.Rt_driver.requests pt.Svc.Rt_driver.goodput;
      ( pt.Svc.Rt_driver.trace,
        pt.Svc.Rt_driver.workers,
        Printf.sprintf "%s/runtime" sc.Svc.Scenario.name )
    end
    else begin
      let p =
        match !p with
        | Some n -> n
        | None -> (
            match sc.Svc.Scenario.sim_p with n :: _ -> n | [] -> 1)
      in
      let pt = Svc.Sim_driver.run_point ~trace:true sc ~p in
      if not !quiet then
        Printf.printf "[anatomy] sim: %s P=%d n=%d goodput=%.0f req/s\n"
          sc.Svc.Scenario.name p pt.Svc.Sim_driver.requests
          pt.Svc.Sim_driver.goodput;
      (pt.Svc.Sim_driver.trace, 1, Printf.sprintf "%s/sim" sc.Svc.Scenario.name)
    end
  in
  let completed = Obs.Reqtrace.completed trace in
  Printf.printf "[anatomy] %s: %d completed spans captured\n%!" label completed;
  (* Per-class slowest-K tables with exact phase decompositions. *)
  let all_slowest = ref [] in
  for c = 0 to Svc.Gen.n_classes - 1 do
    let spans = Obs.Reqtrace.slowest ~cls:c trace in
    all_slowest := !all_slowest @ spans;
    if spans <> [] then begin
      let tt = Obs.Reqtrace.totals ~cls:c trace in
      let max_m =
        List.fold_left
          (fun acc (s : Obs.Reqtrace.span) ->
            max acc s.Obs.Reqtrace.batches_seen)
          0 spans
      in
      Printf.printf
        "  %s: n=%d slowest %d of %d captured, max batches-while-pending \
         (slowest set) m=%d%s\n"
        (class_name c) tt.Obs.Reqtrace.n
        (min !top (List.length spans))
        tt.Obs.Reqtrace.n max_m
        (if max_m > 2 then " (> the paper's Lemma-2 bound of 2)" else "");
      if not !quiet then
        List.iteri
          (fun i s -> if i < !top then print_span s)
          spans
    end
  done;
  (* Aggregate attribution: where did all the latency go? *)
  let tt = Obs.Reqtrace.totals trace in
  if tt.Obs.Reqtrace.n > 0 then begin
    Printf.printf "  attribution over %d spans:" tt.Obs.Reqtrace.n;
    List.iter
      (fun (name, share) -> Printf.printf "  %s %.1f%%" name (100.0 *. share))
      (Obs.Reqtrace.shares tt);
    print_newline ()
  end;
  (match !trace_path with
  | None -> ()
  | Some path ->
      (* Export the sampled timeline plus every slowest-K span (the
         tail is never thinned away), deduplicated by token. *)
      let seen = Hashtbl.create 64 in
      let keep (s : Obs.Reqtrace.span) =
        if Hashtbl.mem seen s.Obs.Reqtrace.token then false
        else begin
          Hashtbl.add seen s.Obs.Reqtrace.token ();
          true
        end
      in
      let sampled = ref [] in
      for tok = Obs.Reqtrace.capacity trace - 1 downto 0 do
        match Obs.Reqtrace.span trace tok with
        | Some s when s.Obs.Reqtrace.sampled -> sampled := s :: !sampled
        | _ -> ()
      done;
      let spans = List.filter keep (!all_slowest @ !sampled) in
      write_trace ~path ~workers:n_workers spans);
  match Obs.Reqtrace.check trace with
  | Ok () ->
      Printf.printf
        "[anatomy] conservation OK: every span's phases sum to its latency\n"
  | Error e ->
      Printf.printf "[anatomy] FAIL conservation: %s\n" e;
      exit 1
