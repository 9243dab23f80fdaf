type t = {
  rc : Recorder.t;
  path : string;
  limit : int;
  extra : (unit -> Json.t) option;
  mutable armed : bool;
  mutable auto_done : bool;  (* an automatic (hook) dump already ran *)
  mutable last : string option;
}

let create ?(path = "flight.json") ?(limit_per_worker = 2048) ?extra rc =
  if limit_per_worker < 1 then invalid_arg "Flight.create: limit_per_worker >= 1";
  {
    rc;
    path;
    limit = limit_per_worker;
    extra;
    armed = false;
    auto_done = false;
    last = None;
  }

let event_json (e : Recorder.event) =
  let base k fields =
    Json.Obj
      (("w", Json.Int e.worker) :: ("t", Json.Int e.time) :: ("k", Json.Str k)
      :: fields)
  in
  match e.kind with
  | Recorder.Status s ->
      base "status" [ ("status", Json.Str (Recorder.status_name s)) ]
  | Recorder.Steal { victim; success; batch_deque } ->
      base "steal"
        [
          ("victim", Json.Int victim);
          ("success", Json.Bool success);
          ("batch_deque", Json.Bool batch_deque);
        ]
  | Recorder.Batch_start { sid; size; setup; _ } ->
      base "batch_start"
        [ ("sid", Json.Int sid); ("size", Json.Int size); ("setup", Json.Int setup) ]
  | Recorder.Batch_end { sid; size } ->
      base "batch_end" [ ("sid", Json.Int sid); ("size", Json.Int size) ]
  | Recorder.Op_issue { sid } -> base "op_issue" [ ("sid", Json.Int sid) ]
  | Recorder.Op_done { sid; batches_seen; latency } ->
      base "op_done"
        [
          ("sid", Json.Int sid);
          ("batches_seen", Json.Int batches_seen);
          ("latency", Json.Int latency);
        ]
  | Recorder.Steals_suppressed { count } ->
      base "steals_suppressed" [ ("count", Json.Int count) ]
  | Recorder.Work { cls; units } ->
      base "work"
        [
          ("cls", Json.Str (Recorder.work_class_name cls));
          ("units", Json.Int units);
        ]
  | Recorder.Violation { check; sid; arg } ->
      base "violation"
        [
          ("check", Json.Str (Recorder.check_name check));
          ("sid", Json.Int sid);
          ("arg", Json.Int arg);
        ]

let last_events t w =
  let l = Recorder.events_of_worker t.rc w in
  let n = List.length l in
  if n <= t.limit then l else List.filteri (fun i _ -> i >= n - t.limit) l

let dump_json ~reason t =
  let rc = t.rc in
  let workers = if Recorder.enabled rc then Recorder.workers rc else 0 in
  let events =
    List.stable_sort
      (fun (a : Recorder.event) b -> compare a.time b.time)
      (List.concat (List.init workers (fun w -> last_events t w)))
  in
  let totals = Recorder.tag_totals rc in
  let extra =
    match t.extra with
    | None -> Json.Null
    | Some f -> ( try f () with _ -> Json.Str "extra-raised")
  in
  Json.Obj
    [
      ("reason", Json.Str reason);
      ("clock", Json.Str (Recorder.clock_name (Recorder.clock rc)));
      ("workers", Json.Int workers);
      ( "tag_totals",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun k name -> (name, Json.Int totals.(k)))
                Recorder.tag_names)) );
      ( "dropped",
        Json.List
          (List.init workers (fun w -> Json.Int (Recorder.dropped rc ~worker:w))) );
      ("events", Json.List (List.map event_json events));
      ("extra", extra);
    ]

let dump ?(reason = "explicit") t =
  t.auto_done <- true;
  let oc = open_out t.path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (dump_json ~reason t));
      output_char oc '\n');
  t.last <- Some t.path;
  t.path

let last_dump t = t.last

(* ---- process hooks ---- *)

let registry : t list ref = ref []
let hooks_installed = ref false

let auto_dump ~reason t =
  if t.armed && not t.auto_done then begin
    t.auto_done <- true;
    try ignore (dump ~reason t) with _ -> ()
  end

let install_hooks () =
  if not !hooks_installed then begin
    hooks_installed := true;
    at_exit (fun () -> List.iter (auto_dump ~reason:"at_exit") !registry);
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        List.iter
          (auto_dump ~reason:("uncaught: " ^ Printexc.to_string exn))
          !registry;
        Printexc.default_uncaught_exception_handler exn bt)
  end

let arm t =
  install_hooks ();
  if not (List.memq t !registry) then registry := t :: !registry;
  t.armed <- true

let disarm t = t.armed <- false
