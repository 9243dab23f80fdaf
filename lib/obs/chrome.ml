type track = {
  pid : int;
  name : string;
  recording : Recorder.t;
}

let batch_tid_base = 1000
let work_tid_base = 2000

let ts_of recorder time =
  match Recorder.clock recorder with
  | Recorder.Timesteps -> float_of_int time  (* 1 timestep = 1 us *)
  | Recorder.Nanoseconds -> float_of_int time /. 1000.0

(* One rendered trace event, before sorting. *)
type ev = { e_tid : int; e_ts : float; e_json : float -> Json.t }

let obj ~name ~cat ~ph ~ts ~pid ~tid extra =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Float ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extra)

let instant ~name ~cat ~pid ~tid args =
  fun ts ->
    obj ~name ~cat ~ph:"i" ~ts ~pid ~tid
      [ ("s", Json.Str "t"); ("args", Json.Obj args) ]

let span ~name ~cat ~pid ~tid ~dur args =
  fun ts -> obj ~name ~cat ~ph:"X" ~ts ~pid ~tid
      [ ("dur", Json.Float dur); ("args", Json.Obj args) ]

(* Worker-track events: status spans + instants, in event order. *)
let worker_events t w acc =
  let r = t.recording in
  let pid = t.pid in
  let acc = ref acc in
  let push tid time mk = acc := { e_tid = tid; e_ts = ts_of r time; e_json = mk } :: !acc in
  let cur_status = ref Recorder.Free in
  let since = ref 0 in
  let last = ref 0 in
  let close_span time =
    if !cur_status <> Recorder.Free && time > !since then
      push w !since
        (span
           ~name:(Recorder.status_name !cur_status)
           ~cat:"status" ~pid ~tid:w
           ~dur:(ts_of r time -. ts_of r !since)
           [])
  in
  List.iter
    (fun (e : Recorder.event) ->
      last := e.time;
      match e.kind with
      | Recorder.Status s ->
          close_span e.time;
          cur_status := s;
          since := e.time
      | Recorder.Steal { victim; success; batch_deque } ->
          push w e.time
            (instant
               ~name:(if success then "steal hit" else "steal miss")
               ~cat:"steal" ~pid ~tid:w
               [
                 ("victim", Json.Int victim);
                 ("deque", Json.Str (if batch_deque then "batch" else "core"));
               ])
      | Recorder.Steals_suppressed { count } ->
          push w e.time
            (instant ~name:"steals suppressed" ~cat:"steal" ~pid ~tid:w
               [ ("count", Json.Int count) ])
      | Recorder.Op_issue { sid } ->
          push w e.time
            (instant ~name:"op issue" ~cat:"op" ~pid ~tid:w [ ("sid", Json.Int sid) ])
      | Recorder.Op_done { sid; batches_seen; latency } ->
          push w e.time
            (instant ~name:"op done" ~cat:"op" ~pid ~tid:w
               [
                 ("sid", Json.Int sid);
                 ("batches_seen", Json.Int batches_seen);
                 ("latency", Json.Int latency);
               ])
      | Recorder.Work { cls; units } ->
          (* The event marks the run's end; the span starts [units] clock
             units earlier, on the worker's companion work track. *)
          push (work_tid_base + w) (e.time - units)
            (span ~name:(Recorder.work_class_name cls) ~cat:"work" ~pid
               ~tid:(work_tid_base + w)
               ~dur:(ts_of r e.time -. ts_of r (e.time - units))
               [ ("units", Json.Int units) ])
      | Recorder.Violation { check; sid; arg } ->
          push w e.time
            (instant
               ~name:("VIOLATION " ^ Recorder.check_name check)
               ~cat:"violation" ~pid ~tid:w
               [ ("sid", Json.Int sid); ("arg", Json.Int arg) ])
      | Recorder.Batch_start _ | Recorder.Batch_end _ -> ())
    (Recorder.events_of_worker r w);
  close_span !last;
  !acc

(* Batch-track events from the merged stream: one span per batch, on
   the synthetic per-structure thread. At most one batch per structure
   is in flight (Invariant 1), so a simple open-slot table suffices. *)
let batch_events t acc =
  let r = t.recording in
  let pid = t.pid in
  let open_batches = Hashtbl.create 8 in
  let acc = ref acc in
  let last = ref 0 in
  List.iter
    (fun (e : Recorder.event) ->
      last := e.time;
      match e.kind with
      | Recorder.Batch_start { sid; size; setup; _ } ->
          Hashtbl.replace open_batches sid (e.time, size, setup, e.worker)
      | Recorder.Batch_end { sid; size = _ } -> begin
          match Hashtbl.find_opt open_batches sid with
          | None -> ()
          | Some (t0, size, setup, launcher) ->
              Hashtbl.remove open_batches sid;
              acc :=
                {
                  e_tid = batch_tid_base + sid;
                  e_ts = ts_of r t0;
                  e_json =
                    span
                      ~name:(Printf.sprintf "batch n=%d" size)
                      ~cat:"batch" ~pid ~tid:(batch_tid_base + sid)
                      ~dur:(ts_of r e.time -. ts_of r t0)
                      [
                        ("sid", Json.Int sid);
                        ("size", Json.Int size);
                        ("setup_work", Json.Int setup);
                        ("launched_by", Json.Int launcher);
                      ];
                }
                :: !acc
        end
      | _ -> ())
    (Recorder.all_events r);
  (* Close any batch left open at the end of the recording. *)
  Hashtbl.iter
    (fun sid (t0, size, setup, launcher) ->
      acc :=
        {
          e_tid = batch_tid_base + sid;
          e_ts = ts_of r t0;
          e_json =
            span
              ~name:(Printf.sprintf "batch n=%d (unfinished)" size)
              ~cat:"batch" ~pid ~tid:(batch_tid_base + sid)
              ~dur:(ts_of r !last -. ts_of r t0)
              [
                ("sid", Json.Int sid);
                ("size", Json.Int size);
                ("setup_work", Json.Int setup);
                ("launched_by", Json.Int launcher);
              ];
        }
        :: !acc)
    open_batches;
  !acc

let meta ~pid ?tid what name =
  Json.Obj
    ([
       ("name", Json.Str what);
       ("ph", Json.Str "M");
       ("ts", Json.Float 0.0);
       ("pid", Json.Int pid);
     ]
    @ (match tid with None -> [] | Some tid -> [ ("tid", Json.Int tid) ])
    @ [ ("args", Json.Obj [ ("name", Json.Str name) ]) ])

let thread_name ~pid tid name = meta ~pid ~tid "thread_name" name

let structure_tracks ~pid sids =
  Hashtbl.fold
    (fun sid () acc ->
      thread_name ~pid (batch_tid_base + sid)
        (Printf.sprintf "structure %d batches" sid)
      :: acc)
    sids []

let metadata t =
  let pid = t.pid in
  let procs = [ meta ~pid ~tid:0 "process_name" t.name ] in
  if not (Recorder.enabled t.recording) then procs
  else begin
    let sids = Hashtbl.create 8 in
    List.iter
      (fun (e : Recorder.event) ->
        match e.kind with
        | Recorder.Batch_start { sid; _ } | Recorder.Batch_end { sid; _ } ->
            Hashtbl.replace sids sid ()
        | _ -> ())
      (Recorder.all_events t.recording);
    let workers =
      List.init (Recorder.workers t.recording) (fun w ->
          thread_name ~pid w (Printf.sprintf "worker %d" w))
    in
    let work_tracks =
      if (Recorder.tag_totals t.recording).(7) = 0 then []
      else
        List.init (Recorder.workers t.recording) (fun w ->
            thread_name ~pid (work_tid_base + w)
              (Printf.sprintf "worker %d work" w))
    in
    procs @ workers @ work_tracks @ structure_tracks ~pid sids
  end

(* Sort so ts is monotone within each (pid, tid) track; stable to keep
   emission order for equal timestamps. [acc] is in reverse emission
   order. *)
let sorted acc =
  List.stable_sort
    (fun a b ->
      match compare a.e_tid b.e_tid with 0 -> compare a.e_ts b.e_ts | c -> c)
    (List.rev acc)
  |> List.map (fun e -> e.e_json e.e_ts)

let track_events t =
  if not (Recorder.enabled t.recording) then []
  else
    List.fold_left
      (fun acc w -> worker_events t w acc)
      []
      (List.init (Recorder.workers t.recording) Fun.id)
    |> batch_events t |> sorted

(* ---- request view ---- *)

let flow ~ph ~id ~pid ~tid ts =
  obj ~name:"req" ~cat:"req" ~ph ~ts ~pid ~tid
    (("id", Json.Int id) :: (if ph = "f" then [ ("bp", Json.Str "e") ] else []))

let requests ~pid ~name ~classes spans =
  let n_cls = max 1 (Array.length classes) in
  let max_lanes = batch_tid_base / n_cls in
  let t_base =
    List.fold_left
      (fun acc (s : Reqtrace.span) -> min acc s.arrive_ns)
      max_int spans
  in
  let us ns = float_of_int ns /. 1e3 in
  let acc = ref [] in
  let push tid ns mk =
    acc := { e_tid = tid; e_ts = us (ns - t_base); e_json = mk } :: !acc
  in
  (* Requests of one class overlap in time, and slices on one thread
     must not: each class gets lanes, filled first-fit in arrival
     order. lanes.(c) holds the end stamp of each lane, lane 0 first. *)
  let lanes = Array.make n_cls [] in
  let rec fit ~at ~fin l = function
    | [] -> if l < max_lanes then Some (l, [ fin ]) else None
    | e :: rest when e <= at -> Some (l, fin :: rest)
    | e :: rest ->
        Option.map
          (fun (l', rest') -> (l', e :: rest'))
          (fit ~at ~fin (l + 1) rest)
  in
  (* One slice per batch: a batch's members share its structure, its
     launch stamp and its duration. *)
  let batches = Hashtbl.create 64 and sids = Hashtbl.create 8 in
  let arrival (a : Reqtrace.span) (b : Reqtrace.span) =
    compare (a.arrive_ns, a.token) (b.arrive_ns, b.token)
  in
  List.iter
    (fun (s : Reqtrace.span) ->
      let at = s.arrive_ns in
      match fit ~at ~fin:(at + s.latency_ns) 0 lanes.(s.cls) with
      | None -> ()
      | Some (lane, ends) ->
          lanes.(s.cls) <- ends;
          let tid = s.cls + (n_cls * lane) in
          let args =
            [
              ("token", Json.Int s.token);
              ("sid", Json.Int s.sid);
              ("batches_seen", Json.Int s.batches_seen);
            ]
          in
          let launch = at + s.queue_ns + s.sched_pre_ns + s.pending_ns in
          ignore
            (List.fold_left
               (fun t0 (ph, d) ->
                 if d > 0 then
                   push tid t0
                     (span ~name:ph ~cat:"req" ~pid ~tid ~dur:(us d) args);
                 t0 + d)
               at
               [
                 ("queue", s.queue_ns);
                 ("sched", s.sched_pre_ns);
                 ("pending", s.pending_ns);
                 ("exec", s.exec_ns);
                 ("sched_post", s.sched_post_ns);
               ]);
          let btid = batch_tid_base + s.sid in
          let key = (s.sid, launch, s.exec_ns) in
          if not (Hashtbl.mem batches key) then begin
            Hashtbl.add batches key ();
            Hashtbl.replace sids s.sid ();
            push btid launch
              (span ~name:"batch" ~cat:"batch" ~pid ~tid:btid
                 ~dur:(us s.exec_ns)
                 [ ("sid", Json.Int s.sid) ])
          end;
          let id = (pid lsl 32) lor s.token in
          push tid at (flow ~ph:"s" ~id ~pid ~tid);
          push btid launch (flow ~ph:"f" ~id ~pid ~tid:btid))
    (List.stable_sort arrival spans);
  let lane_names =
    List.concat
      (List.mapi
         (fun c ends ->
           List.mapi
             (fun l _ ->
               thread_name ~pid (c + (n_cls * l))
                 (if l = 0 then classes.(c)
                  else Printf.sprintf "%s (%d)" classes.(c) (l + 1)))
             ends)
         (Array.to_list lanes))
  in
  (meta ~pid ~tid:0 "process_name" name :: lane_names)
  @ structure_tracks ~pid sids @ sorted !acc

(* ---- output ---- *)

let envelope events =
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]

let recording_events tracks =
  List.concat_map (fun t -> metadata t @ track_events t) tracks

let to_json tracks = envelope (recording_events tracks)
let to_string tracks = Json.to_string (to_json tracks)

let write_events ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.write buf (envelope events);
      Buffer.output_buffer oc buf)

let write_file ~path tracks = write_events ~path (recording_events tracks)
