type buckets = {
  core : int;
  batch : int;
  setup : int;
  sched : int;
  idle : int;
  wait : int;
}

let zero_buckets = { core = 0; batch = 0; setup = 0; sched = 0; idle = 0; wait = 0 }

let bucket_total b = b.core + b.batch + b.setup + b.sched + b.idle + b.wait

let add_buckets a b =
  {
    core = a.core + b.core;
    batch = a.batch + b.batch;
    setup = a.setup + b.setup;
    sched = a.sched + b.sched;
    idle = a.idle + b.idle;
    wait = a.wait + b.wait;
  }

type worker_account = {
  wa_worker : int;
  wa_buckets : buckets;
  wa_covered : int;
  wa_first : int;
  wa_last : int;
}

type structure_account = {
  sa_sid : int;
  sa_batches : int;
  sa_ops : int;
  sa_setup : int;
  sa_busy : int;
}

type t = {
  clock : Recorder.clock;
  p : int;
  per_worker : worker_account array;
  per_structure : structure_account array;
  total : buckets;
  dropped : int;
}

(* Fold one worker's chronological event stream into its account.

   Time costs come from two event families:
   - [Work] runs carry [units] clock units of classified execution
     ending at the event time;
   - in the simulator ([Timesteps] clock) a failed [Steal] is a whole
     timestep spent probing, classified by the worker's status at that
     point in the stream: Free means span-limited idleness (there was
     nothing to steal), any trapped status means the worker is waiting
     out a batch — the realized surface of the bound's m·s(n) term.
   On the [Nanoseconds] clock steal events are instants inside the
   worker's [Wsched] segments, so only [Work] carries time there.
   Successful steals cost nothing in either clock: the stolen unit's
   execution is already inside a [Work] run. *)
let account_worker clk r w =
  let core = ref 0
  and batch = ref 0
  and setup = ref 0
  and sched = ref 0
  and idle = ref 0
  and wait = ref 0 in
  let covered = ref 0 in
  let first = ref max_int in
  let last = ref min_int in
  let free = ref true in
  let cover lo hi =
    if lo < !first then first := lo;
    if hi > !last then last := hi
  in
  List.iter
    (fun (e : Recorder.event) ->
      match e.kind with
      | Recorder.Status s -> free := s = Recorder.Free
      | Recorder.Work { cls; units } ->
          (match cls with
          | Recorder.Wcore -> core := !core + units
          | Recorder.Wbatch -> batch := !batch + units
          | Recorder.Wsetup -> setup := !setup + units
          | Recorder.Wsched -> sched := !sched + units
          | Recorder.Wwait -> wait := !wait + units);
          covered := !covered + units;
          cover (e.time - units) e.time
      | Recorder.Steal { success = false; _ } when clk = Recorder.Timesteps ->
          if !free then incr idle else incr wait;
          incr covered;
          cover (e.time - 1) e.time
      | Recorder.Steal _ | Recorder.Steals_suppressed _
      | Recorder.Batch_start _ | Recorder.Batch_end _
      | Recorder.Op_issue _ | Recorder.Op_done _ | Recorder.Violation _ ->
          ())
    (Recorder.events_of_worker r w);
  let first = if !first = max_int then 0 else !first in
  let last = if !last = min_int then 0 else !last in
  {
    wa_worker = w;
    wa_buckets =
      {
        core = !core;
        batch = !batch;
        setup = !setup;
        sched = !sched;
        idle = !idle;
        wait = !wait;
      };
    wa_covered = !covered;
    wa_first = first;
    wa_last = last;
  }

(* Batch_start and Batch_end for one batch are usually emitted by
   different workers (launcher vs finisher), so pairing happens on the
   time-merged stream. Invariant 1 — at most one batch in flight per
   structure — makes in-order pairing per sid exact: a structure's next
   Batch_end always closes its one open Batch_start. *)
let per_structure r =
  if not (Recorder.enabled r) then [||]
  else begin
    let tbl : (int, int ref * int ref * int ref * int ref * int option ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let get sid =
      match Hashtbl.find_opt tbl sid with
      | Some acc -> acc
      | None ->
          let acc = (ref 0, ref 0, ref 0, ref 0, ref None) in
          Hashtbl.add tbl sid acc;
          acc
    in
    List.iter
      (fun (e : Recorder.event) ->
        match e.kind with
        | Recorder.Batch_start { sid; size; setup; _ } ->
            let _, ops, st, _, open_ = get sid in
            ops := !ops + size;
            st := !st + setup;
            open_ := Some e.time
        | Recorder.Batch_end { sid; _ } ->
            let batches, _, _, busy, open_ = get sid in
            incr batches;
            (match !open_ with
            | Some t0 -> busy := !busy + (e.time - t0)
            | None -> (* launch lost to ring wraparound *) ());
            open_ := None
        | _ -> ())
      (Recorder.all_events r);
    Hashtbl.fold (fun sid acc l -> (sid, acc) :: l) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (sid, (b, o, s, bu, _)) ->
           {
             sa_sid = sid;
             sa_batches = !b;
             sa_ops = !o;
             sa_setup = !s;
             sa_busy = !bu;
           })
    |> Array.of_list
  end

let of_recorder r =
  if not (Recorder.enabled r) then
    {
      clock = Recorder.clock r;
      p = 0;
      per_worker = [||];
      per_structure = [||];
      total = zero_buckets;
      dropped = 0;
    }
  else begin
    let clk = Recorder.clock r in
    let per_worker =
      Array.init (Recorder.workers r) (fun w -> account_worker clk r w)
    in
    {
      clock = clk;
      p = Recorder.workers r;
      per_worker;
      per_structure = per_structure r;
      total =
        Array.fold_left
          (fun acc wa -> add_buckets acc wa.wa_buckets)
          zero_buckets per_worker;
      dropped = Recorder.total_dropped r;
    }
  end

let total_covered t =
  Array.fold_left (fun acc wa -> acc + wa.wa_covered) 0 t.per_worker

let check ?expected ?(slack = 0) t =
  if t.dropped > 0 then
    Error
      (Printf.sprintf
         "attribution unreliable: %d events dropped by ring wraparound"
         t.dropped)
  else begin
    let bad = ref None in
    Array.iter
      (fun wa ->
        if !bad = None then begin
          let span = wa.wa_last - wa.wa_first in
          if bucket_total wa.wa_buckets <> wa.wa_covered then
            bad :=
              Some
                (Printf.sprintf "worker %d: buckets sum %d <> covered %d"
                   wa.wa_worker
                   (bucket_total wa.wa_buckets)
                   wa.wa_covered)
          else if abs (wa.wa_covered - span) > slack then
            bad :=
              Some
                (Printf.sprintf
                   "worker %d: covered %d but observed span %d (gap %d > slack %d)"
                   wa.wa_worker wa.wa_covered span
                   (abs (wa.wa_covered - span))
                   slack)
        end)
      t.per_worker;
    match !bad with
    | Some msg -> Error msg
    | None -> begin
        match expected with
        | Some e when abs (total_covered t - e) > slack ->
            Error
              (Printf.sprintf
                 "bucket conservation violated: sum %d <> expected %d (P x makespan)"
                 (total_covered t) e)
        | _ -> Ok ()
      end
  end

let unit_name = function Recorder.Timesteps -> "steps" | Recorder.Nanoseconds -> "ns"

let pp_buckets fmt b =
  Format.fprintf fmt "core=%d batch=%d setup=%d sched=%d idle=%d wait=%d"
    b.core b.batch b.setup b.sched b.idle b.wait

let pp fmt t =
  Format.fprintf fmt "attribution (%s, %d workers, %d dropped):@."
    (unit_name t.clock) t.p t.dropped;
  Format.fprintf fmt "  total: %a  sum=%d@." pp_buckets t.total
    (bucket_total t.total);
  Array.iter
    (fun wa ->
      Format.fprintf fmt "  w%d: %a  covered=%d span=[%d,%d]@." wa.wa_worker
        pp_buckets wa.wa_buckets wa.wa_covered wa.wa_first wa.wa_last)
    t.per_worker;
  Array.iter
    (fun sa ->
      Format.fprintf fmt "  sid%d: batches=%d ops=%d setup=%d busy=%d@."
        sa.sa_sid sa.sa_batches sa.sa_ops sa.sa_setup sa.sa_busy)
    t.per_structure

let buckets_json b =
  Json.Obj
    [
      ("core", Json.Int b.core);
      ("batch", Json.Int b.batch);
      ("setup", Json.Int b.setup);
      ("sched", Json.Int b.sched);
      ("idle", Json.Int b.idle);
      ("wait", Json.Int b.wait);
    ]

let structure_json sa =
  Json.Obj
    [
      ("sid", Json.Int sa.sa_sid);
      ("batches", Json.Int sa.sa_batches);
      ("ops", Json.Int sa.sa_ops);
      ("setup", Json.Int sa.sa_setup);
      ("busy", Json.Int sa.sa_busy);
    ]

let to_json t =
  Json.Obj
    [
      ("clock", Json.Str (unit_name t.clock));
      ("workers", Json.Int t.p);
      ("dropped", Json.Int t.dropped);
      ("total", buckets_json t.total);
      ("sum", Json.Int (bucket_total t.total));
      ( "per_worker",
        Json.List
          (Array.to_list
             (Array.map
                (fun wa ->
                  Json.Obj
                    [
                      ("worker", Json.Int wa.wa_worker);
                      ("buckets", buckets_json wa.wa_buckets);
                      ("covered", Json.Int wa.wa_covered);
                      ("first", Json.Int wa.wa_first);
                      ("last", Json.Int wa.wa_last);
                    ])
                t.per_worker)) );
      ( "per_structure",
        Json.List (Array.to_list (Array.map structure_json t.per_structure)) );
    ]
