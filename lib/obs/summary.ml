module Histo = struct
  type t = {
    counts : int array;  (* bucket k: 0, then [2^(k-1), 2^k) *)
    mutable n : int;
    mutable sum : int;
    mutable mn : int;
    mutable mx : int;
  }

  let buckets_len = 63

  let create () =
    { counts = Array.make buckets_len 0; n = 0; sum = 0; mn = max_int; mx = 0 }

  (* Bit count (floor(log2 v) + 1) by branch-free binary reduction
     rather than a shift-per-bit loop: [add] sits on the health layer's
     per-op hot path (three calls per completed op), where the loop's
     ~60 ns dominated the whole hook. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let n = ref 1 and v = ref v in
      if !v lsr 32 <> 0 then begin n := !n + 32; v := !v lsr 32 end;
      if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
      if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
      if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
      if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
      if !v lsr 1 <> 0 then n := !n + 1;
      min (buckets_len - 1) !n
    end

  let add t v =
    let v = max 0 v in
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v

  (* Union of two histograms. Buckets are fixed power-of-two ranges, so
     merging is an elementwise sum; n/sum add, min/max take the extremes
     (the empty histogram's mn = max_int / mx = 0 are the identities for
     min/max over non-negative samples, so merging with an empty side is
     exact). Inputs are not mutated. *)
  let merge x y =
    let t = create () in
    for k = 0 to buckets_len - 1 do
      t.counts.(k) <- x.counts.(k) + y.counts.(k)
    done;
    t.n <- x.n + y.n;
    t.sum <- x.sum + y.sum;
    t.mn <- min x.mn y.mn;
    t.mx <- max x.mx y.mx;
    t

  let count t = t.n
  let total t = t.sum
  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n
  let min_v t = if t.n = 0 then 0 else t.mn
  let max_v t = t.mx

  let buckets t =
    let out = ref [] in
    for k = buckets_len - 1 downto 0 do
      if t.counts.(k) > 0 then begin
        let lo = if k = 0 then 0 else 1 lsl (k - 1) in
        let hi = if k = 0 then 0 else (1 lsl k) - 1 in
        out := (lo, hi, t.counts.(k)) :: !out
      end
    done;
    !out

  (* Percentile by linear interpolation. The histogram only keeps
     power-of-two bucket counts, so within the bucket holding the
     requested rank the [c] samples are assumed evenly spread over the
     bucket's range clamped to the observed [min_v, max_v]; p0 is thus
     exactly [min_v] and p100 exactly [max_v]. [q] is clamped to [0,1]. *)
  let percentile t q =
    if t.n = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      (* The extremes are tracked exactly; interpolation would instead
         land mid-bucket when the extreme is alone in a wide bucket. *)
      if q = 0.0 then float_of_int t.mn
      else if q = 1.0 then float_of_int t.mx
      else begin
      let rank = q *. float_of_int (t.n - 1) in
      let exception Found of float in
      try
        let cum = ref 0 in
        for k = 0 to buckets_len - 1 do
          let c = t.counts.(k) in
          if c > 0 then begin
            if rank <= float_of_int (!cum + c - 1) then begin
              let lo = if k = 0 then 0 else 1 lsl (k - 1) in
              let hi = if k = 0 then 0 else (1 lsl k) - 1 in
              let lo' = float_of_int (max lo t.mn) in
              let hi' = float_of_int (min hi t.mx) in
              let frac =
                if c <= 1 then 0.5
                else (rank -. float_of_int !cum) /. float_of_int (c - 1)
              in
              raise (Found (lo' +. (frac *. (hi' -. lo'))))
            end;
            cum := !cum + c
          end
        done;
        float_of_int t.mx
      with Found v -> v
      end
    end
end

type buckets = {
  core : int;
  batch : int;
  setup : int;
  sched : int;
  idle : int;
  wait : int;
}

let bucket_total b = b.core + b.batch + b.setup + b.sched + b.idle + b.wait

type worker_account = {
  wa_worker : int;
  wa_first : int;
  wa_last : int;
  wa_buckets : buckets;
  wa_status : int array;
}

type structure_account = {
  sa_sid : int;
  sa_batches : int;
  sa_ops : int;
  sa_setup : int;
  sa_busy : int;
  sa_longest : int;
}

type segment = {
  sg_kind : string;
  sg_sid : int;
  sg_start : int;
  sg_len : int;
  sg_worker : int;
}

type t = {
  clock : Recorder.clock;
  workers : int;
  events : int;
  dropped : int;
  per_worker : worker_account array;
  total : buckets;
  status_time : int array;
  per_structure : structure_account array;
  batch_size : Histo.t;
  op_latency : Histo.t;
  batches_seen : int array;
  max_batches_seen : int;
  steal_attempts : int;
  steal_successes : int;
  violations : int array;
  t_inf_witness : int;
  top : segment list;
}

let statuses = Recorder.[ Free; Pending; Executing; Done ]

let status_idx = function
  | Recorder.Free -> 0
  | Recorder.Pending -> 1
  | Recorder.Executing -> 2
  | Recorder.Done -> 3

(* One worker's running totals during the pass. [cells] holds the
   buckets as core, batch, setup, sched, wait (the work-class order),
   then idle. *)
type wacc = {
  cells : int array;
  status : int array;
  mutable cur : Recorder.status;
  mutable since : int;  (* time of the last Status event, 0 before one *)
  mutable first : int;
  mutable last : int;
}

let cell = function
  | Recorder.Wcore -> 0
  | Recorder.Wbatch -> 1
  | Recorder.Wsetup -> 2
  | Recorder.Wsched -> 3
  | Recorder.Wwait -> 4

let idle_cell = 5

type sacc = {
  mutable batches : int;
  mutable ops : int;
  mutable setup : int;
  mutable busy : int;
  mutable longest : int;
  mutable open_ : (int * int) option;  (* launch time, launcher *)
}

let top_k = 10

(* The one pass, over the time-merged stream (stable within a worker,
   so each worker's events stay chronological).

   Time reaches the buckets through two event families: a [Work] run
   carries [units] clock units ending at its time; on the [Timesteps]
   clock a failed [Steal] is a whole step spent probing, [idle] if the
   worker's status is [Free] and [wait] if it is trapped. On the
   [Nanoseconds] clock steals are instants inside [Wsched] runs. Each
   bucketed unit widens the worker's observed span.

   Batch_start and Batch_end of one batch usually come from different
   workers, which is why pairing runs on the merged stream: by
   Invariant 1 a structure's next Batch_end closes its one open
   Batch_start. *)
let of_recorder r =
  let p = if Recorder.enabled r then Recorder.workers r else 0 in
  let ws =
    Array.init p (fun _ ->
        {
          cells = Array.make 6 0;
          status = Array.make 4 0;
          cur = Recorder.Free;
          since = 0;
          first = max_int;
          last = min_int;
        })
  in
  let structures : (int, sacc) Hashtbl.t = Hashtbl.create 8 in
  let structure sid =
    match Hashtbl.find_opt structures sid with
    | Some s -> s
    | None ->
        let s =
          {
            batches = 0;
            ops = 0;
            setup = 0;
            busy = 0;
            longest = 0;
            open_ = None;
          }
        in
        Hashtbl.add structures sid s;
        s
  in
  let timesteps = Recorder.clock r = Recorder.Timesteps in
  let batch_size = Histo.create () and op_latency = Histo.create () in
  let batches_seen = Array.make 9 0 in
  let violations = Array.make Recorder.n_checks 0 in
  let events = ref 0 and max_seen = ref 0 in
  let attempts = ref 0 and hits = ref 0 in
  let segs = ref [] in
  List.iter
    (fun (e : Recorder.event) ->
      incr events;
      let w = ws.(e.worker) in
      let bucket k lo =
        w.cells.(k) <- w.cells.(k) + (e.time - lo);
        if lo < w.first then w.first <- lo;
        if e.time > w.last then w.last <- e.time
      in
      match e.kind with
      | Recorder.Status s ->
          let k = status_idx w.cur in
          w.status.(k) <- w.status.(k) + (e.time - w.since);
          w.cur <- s;
          w.since <- e.time
      | Recorder.Work { cls; units } -> bucket (cell cls) (e.time - units)
      | Recorder.Steal { success; _ } ->
          incr attempts;
          if success then incr hits
          else if timesteps then
            bucket (if w.cur = Recorder.Free then idle_cell else cell Wwait)
              (e.time - 1)
      | Recorder.Steals_suppressed { count } ->
          attempts := !attempts + count
      | Recorder.Batch_start { sid; size; setup } ->
          Histo.add batch_size size;
          let s = structure sid in
          s.ops <- s.ops + size;
          s.setup <- s.setup + setup;
          s.open_ <- Some (e.time, e.worker)
      | Recorder.Batch_end { sid; _ } -> (
          let s = structure sid in
          s.batches <- s.batches + 1;
          match s.open_ with
          | None -> (* launch lost to ring wraparound *) ()
          | Some (t0, w0) ->
              let len = e.time - t0 in
              s.busy <- s.busy + len;
              s.longest <- max s.longest len;
              s.open_ <- None;
              segs :=
                { sg_kind = "batch"; sg_sid = sid; sg_start = t0; sg_len = len;
                  sg_worker = w0 }
                :: !segs)
      | Recorder.Op_done { sid; batches_seen = seen; latency } ->
          Histo.add op_latency latency;
          let k = min 8 (max 0 seen) in
          batches_seen.(k) <- batches_seen.(k) + 1;
          max_seen := max !max_seen seen;
          segs :=
            { sg_kind = "op"; sg_sid = sid; sg_start = e.time - latency;
              sg_len = latency; sg_worker = e.worker }
            :: !segs
      | Recorder.Violation { check; _ } ->
          let k = Recorder.check_code check in
          violations.(k) <- violations.(k) + 1
      | Recorder.Op_issue _ -> ())
    (Recorder.all_events r);
  let per_worker =
    Array.mapi
      (fun i w ->
        let first = if w.first = max_int then 0 else w.first in
        let last = if w.last = min_int then 0 else w.last in
        (* The status clock ran from 0; start it at [first] instead and
           stop it at [last], so the entries sum to [last - first]. *)
        w.status.(0) <- w.status.(0) - first;
        let k = status_idx w.cur in
        w.status.(k) <- w.status.(k) + (last - w.since);
        let c = w.cells in
        {
          wa_worker = i;
          wa_first = first;
          wa_last = last;
          wa_buckets =
            { core = c.(0); batch = c.(1); setup = c.(2); sched = c.(3);
              wait = c.(4); idle = c.(idle_cell) };
          wa_status = w.status;
        })
      ws
  in
  let sum f =
    Array.fold_left (fun acc wa -> acc + f wa.wa_buckets) 0 per_worker
  in
  let per_structure =
    Hashtbl.fold (fun sid s l -> (sid, s) :: l) structures []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (sid, s) ->
           { sa_sid = sid; sa_batches = s.batches; sa_ops = s.ops;
             sa_setup = s.setup; sa_busy = s.busy; sa_longest = s.longest })
    |> Array.of_list
  in
  {
    clock = Recorder.clock r;
    workers = p;
    events = !events;
    dropped = Recorder.total_dropped r;
    per_worker;
    total =
      { core = sum (fun b -> b.core); batch = sum (fun b -> b.batch);
        setup = sum (fun b -> b.setup); sched = sum (fun b -> b.sched);
        idle = sum (fun b -> b.idle); wait = sum (fun b -> b.wait) };
    status_time =
      Array.init 4 (fun k ->
          Array.fold_left (fun acc wa -> acc + wa.wa_status.(k)) 0 per_worker);
    per_structure;
    batch_size;
    op_latency;
    batches_seen;
    max_batches_seen = !max_seen;
    steal_attempts = !attempts;
    steal_successes = !hits;
    violations;
    t_inf_witness =
      Array.fold_left
        (fun acc sa -> max acc sa.sa_busy)
        (Histo.max_v op_latency) per_structure;
    top =
      List.filteri
        (fun i _ -> i < top_k)
        (List.stable_sort (fun a b -> compare b.sg_len a.sg_len) !segs);
  }

let steal_rate t =
  if t.steal_attempts = 0 then 0.0
  else float_of_int t.steal_successes /. float_of_int t.steal_attempts

let check ?expected t =
  let bad wa = bucket_total wa.wa_buckets <> wa.wa_last - wa.wa_first in
  if t.dropped > 0 then
    Error
      (Printf.sprintf
         "attribution unreliable: %d events dropped by ring wraparound"
         t.dropped)
  else
    match Array.find_opt bad t.per_worker with
    | Some wa ->
        Error
          (Printf.sprintf "worker %d: buckets sum %d but observed span %d"
             wa.wa_worker
             (bucket_total wa.wa_buckets)
             (wa.wa_last - wa.wa_first))
    | None -> (
        match expected with
        | Some e when bucket_total t.total <> e ->
            Error
              (Printf.sprintf
                 "bucket conservation violated: sum %d <> expected %d (P x \
                  makespan)"
                 (bucket_total t.total) e)
        | _ -> Ok ())

let pct ~of_ v =
  if of_ = 0 then 0.0 else 100.0 *. float_of_int v /. float_of_int of_

let bucket_rows b =
  [
    ("core", b.core);
    ("batch", b.batch);
    ("setup", b.setup);
    ("sched", b.sched);
    ("idle", b.idle);
    ("wait", b.wait);
  ]

let pp_histo fmt ~unit h =
  if Histo.count h = 0 then Format.fprintf fmt "  (empty)@."
  else begin
    Format.fprintf fmt "  n=%d mean=%.1f min=%d max=%d %s@." (Histo.count h)
      (Histo.mean h) (Histo.min_v h) (Histo.max_v h) unit;
    List.iter
      (fun (lo, hi, c) ->
        Format.fprintf fmt "  [%10d, %10d] %8d %s@." lo hi c
          (String.make (min 40 c) '#'))
      (Histo.buckets h)
  end

let pp fmt t =
  let u = Recorder.clock_name t.clock in
  let covered = bucket_total t.total in
  Format.fprintf fmt "recording: %d workers, %d events (%d dropped), clock=%s@."
    t.workers t.events t.dropped u;
  Format.fprintf fmt "buckets (%d %s of observed worker time):@." covered u;
  List.iter
    (fun (name, v) ->
      Format.fprintf fmt "  %-6s %14d  %5.1f%%@." name v (pct ~of_:covered v))
    (bucket_rows t.total);
  Format.fprintf fmt
    "  worker   core%%  batch%%  setup%%  sched%%   idle%%   wait%%   span@.";
  Array.iter
    (fun wa ->
      let span = wa.wa_last - wa.wa_first in
      Format.fprintf fmt "  %6d" wa.wa_worker;
      List.iter
        (fun (_, v) -> Format.fprintf fmt "  %6.1f" (pct ~of_:span v))
        (bucket_rows wa.wa_buckets);
      Format.fprintf fmt "   [%d, %d]@." wa.wa_first wa.wa_last)
    t.per_worker;
  Format.fprintf fmt "status time (%s):" u;
  List.iteri
    (fun k s ->
      Format.fprintf fmt " %s=%d" (Recorder.status_name s) t.status_time.(k))
    statuses;
  Format.fprintf fmt "@.steals: %d attempts, %d successes (%.1f%%)@."
    t.steal_attempts t.steal_successes (100.0 *. steal_rate t);
  Array.iter
    (fun sa ->
      Format.fprintf fmt
        "structure %d: %d batches, %d ops, setup %d, busy %d %s (longest %d)@."
        sa.sa_sid sa.sa_batches sa.sa_ops sa.sa_setup sa.sa_busy u
        sa.sa_longest)
    t.per_structure;
  Format.fprintf fmt "batch size:@.";
  pp_histo fmt ~unit:"ops" t.batch_size;
  Format.fprintf fmt "op latency (issue -> batch completion):@.";
  pp_histo fmt ~unit:u t.op_latency;
  Format.fprintf fmt
    "batches launched while pending (Lemma 2 bound: 2; max seen %d):@."
    t.max_batches_seen;
  Array.iteri
    (fun k c ->
      if c > 0 then
        Format.fprintf fmt "  %s: %8d %s@."
          (if k = 8 then "8+" else string_of_int k)
          c
          (String.make (min 40 c) '#'))
    t.batches_seen;
  let last = Array.fold_left (fun acc wa -> max acc wa.wa_last) 0 t.per_worker
  and first =
    Array.fold_left (fun acc wa -> min acc wa.wa_first) max_int t.per_worker
  in
  let span = max 0 (last - first) in
  Format.fprintf fmt
    "critical-path witness: %d %s (%.1f%% of the observed span %d)@."
    t.t_inf_witness u (pct ~of_:span t.t_inf_witness) span;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-5s sid=%d worker=%d [%d, %d] len=%d@." s.sg_kind
        s.sg_sid s.sg_worker s.sg_start (s.sg_start + s.sg_len) s.sg_len)
    t.top;
  let nviol = Array.fold_left ( + ) 0 t.violations in
  if nviol > 0 then begin
    Format.fprintf fmt "VIOLATIONS: %d@." nviol;
    Array.iteri
      (fun k c ->
        if c > 0 then
          Format.fprintf fmt "  %s: %d@."
            (Recorder.check_name (Recorder.check_of_code k))
            c)
      t.violations
  end

let histo_json h =
  Json.Obj
    [
      ("count", Json.Int (Histo.count h));
      ("total", Json.Int (Histo.total h));
      ("mean", Json.Float (Histo.mean h));
      ("min", Json.Int (Histo.min_v h));
      ("max", Json.Int (Histo.max_v h));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ])
             (Histo.buckets h)) );
    ]

let buckets_json b =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (bucket_rows b))

let status_json a =
  Json.Obj
    (List.mapi (fun k s -> (Recorder.status_name s, Json.Int a.(k))) statuses)

let list_json f a = Json.List (Array.to_list (Array.map f a))

let to_json t =
  Json.Obj
    [
      ("clock", Json.Str (Recorder.clock_name t.clock));
      ("workers", Json.Int t.workers);
      ("events", Json.Int t.events);
      ("dropped", Json.Int t.dropped);
      ("total", buckets_json t.total);
      ("status_time", status_json t.status_time);
      ( "per_worker",
        list_json
          (fun wa ->
            Json.Obj
              [
                ("worker", Json.Int wa.wa_worker);
                ("first", Json.Int wa.wa_first);
                ("last", Json.Int wa.wa_last);
                ("buckets", buckets_json wa.wa_buckets);
                ("status_time", status_json wa.wa_status);
              ])
          t.per_worker );
      ( "per_structure",
        list_json
          (fun sa ->
            Json.Obj
              [
                ("sid", Json.Int sa.sa_sid);
                ("batches", Json.Int sa.sa_batches);
                ("ops", Json.Int sa.sa_ops);
                ("setup", Json.Int sa.sa_setup);
                ("busy", Json.Int sa.sa_busy);
                ("longest", Json.Int sa.sa_longest);
              ])
          t.per_structure );
      ("batch_size", histo_json t.batch_size);
      ("op_latency", histo_json t.op_latency);
      ("batches_while_pending", list_json (fun c -> Json.Int c) t.batches_seen);
      ("max_batches_while_pending", Json.Int t.max_batches_seen);
      ("steal_attempts", Json.Int t.steal_attempts);
      ("steal_successes", Json.Int t.steal_successes);
      ( "violations",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun k c ->
                  (Recorder.check_name (Recorder.check_of_code k), Json.Int c))
                t.violations)) );
      ("t_inf_witness", Json.Int t.t_inf_witness);
      ( "top_segments",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("kind", Json.Str s.sg_kind);
                   ("sid", Json.Int s.sg_sid);
                   ("worker", Json.Int s.sg_worker);
                   ("start", Json.Int s.sg_start);
                   ("len", Json.Int s.sg_len);
                 ])
             t.top) );
    ]
