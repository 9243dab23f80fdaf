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

type t = {
  clock : Recorder.clock;
  workers : int;
  events : int;
  dropped : int;
  batches : int;
  batch_size : Histo.t;
  setup_total : int;
  ops : int;
  op_latency : Histo.t;
  batches_seen : int array;
  max_batches_seen : int;
  steal_attempts : int;
  steal_successes : int;
  status_time : int array;
  work_units : int array;  (* clock units per work class, index = Wcore.. *)
  violations : int array;  (* per check, index = Recorder.check_code *)
}

let of_recorder r =
  let t =
    {
      clock = Recorder.clock r;
      workers = (if Recorder.enabled r then Recorder.workers r else 0);
      events = 0;
      dropped = Recorder.total_dropped r;
      batches = 0;
      batch_size = Histo.create ();
      setup_total = 0;
      ops = 0;
      op_latency = Histo.create ();
      batches_seen = Array.make 9 0;
      max_batches_seen = 0;
      steal_attempts = 0;
      steal_successes = 0;
      status_time = Array.make 4 0;
      work_units = Array.make 5 0;
      violations = Array.make Recorder.n_checks 0;
    }
  in
  if not (Recorder.enabled r) then t
  else begin
    let events = ref 0 in
    let batches = ref 0 in
    let setup_total = ref 0 in
    let ops = ref 0 in
    let max_seen = ref 0 in
    let attempts = ref 0 in
    let hits = ref 0 in
    let status_idx = function
      | Recorder.Free -> 0
      | Recorder.Pending -> 1
      | Recorder.Executing -> 2
      | Recorder.Done -> 3
    in
    let class_idx = function
      | Recorder.Wcore -> 0
      | Recorder.Wbatch -> 1
      | Recorder.Wsetup -> 2
      | Recorder.Wsched -> 3
      | Recorder.Wwait -> 4
    in
    for w = 0 to Recorder.workers r - 1 do
      let cur = ref Recorder.Free in
      let since = ref 0 in
      let last = ref 0 in
      List.iter
        (fun (e : Recorder.event) ->
          incr events;
          last := e.time;
          match e.kind with
          | Recorder.Status s ->
              t.status_time.(status_idx !cur) <-
                t.status_time.(status_idx !cur) + (e.time - !since);
              cur := s;
              since := e.time
          | Recorder.Steal { success; _ } ->
              incr attempts;
              if success then incr hits
          | Recorder.Steals_suppressed { count } ->
              (* Failed attempts batched while the worker was in backoff:
                 fold them back in so the attempt total stays truthful. *)
              attempts := !attempts + count
          | Recorder.Batch_start { size; setup; _ } ->
              incr batches;
              Histo.add t.batch_size size;
              setup_total := !setup_total + setup
          | Recorder.Work { cls; units } ->
              t.work_units.(class_idx cls) <- t.work_units.(class_idx cls) + units
          | Recorder.Batch_end _ -> ()
          | Recorder.Op_issue _ -> ()
          | Recorder.Violation { check; _ } ->
              let k = Recorder.check_code check in
              t.violations.(k) <- t.violations.(k) + 1
          | Recorder.Op_done { batches_seen; latency; _ } ->
              incr ops;
              Histo.add t.op_latency latency;
              let k = min 8 (max 0 batches_seen) in
              t.batches_seen.(k) <- t.batches_seen.(k) + 1;
              if batches_seen > !max_seen then max_seen := batches_seen)
        (Recorder.events_of_worker r w);
      t.status_time.(status_idx !cur) <-
        t.status_time.(status_idx !cur) + (!last - !since)
    done;
    {
      t with
      events = !events;
      batches = !batches;
      setup_total = !setup_total;
      ops = !ops;
      max_batches_seen = !max_seen;
      steal_attempts = !attempts;
      steal_successes = !hits;
    }
  end

let steal_rate t =
  if t.steal_attempts = 0 then 0.0
  else float_of_int t.steal_successes /. float_of_int t.steal_attempts

let unit_name = function Recorder.Timesteps -> "steps" | Recorder.Nanoseconds -> "ns"

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
  let u = unit_name t.clock in
  Format.fprintf fmt "recording: %d workers, %d events (%d dropped), clock=%s@."
    t.workers t.events t.dropped u;
  Format.fprintf fmt "status time (%s): free=%d pending=%d executing=%d done=%d@." u
    t.status_time.(0) t.status_time.(1) t.status_time.(2) t.status_time.(3);
  Format.fprintf fmt "steals: %d attempts, %d successes (%.1f%%)@." t.steal_attempts
    t.steal_successes (100.0 *. steal_rate t);
  Format.fprintf fmt "work units (%s): core=%d batch=%d setup=%d sched=%d wait=%d@."
    u t.work_units.(0) t.work_units.(1) t.work_units.(2) t.work_units.(3)
    t.work_units.(4);
  Format.fprintf fmt "batches: %d (total setup work %d)@." t.batches t.setup_total;
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

let to_json t =
  Json.Obj
    [
      ("clock", Json.Str (unit_name t.clock));
      ("workers", Json.Int t.workers);
      ("events", Json.Int t.events);
      ("dropped", Json.Int t.dropped);
      ( "status_time",
        Json.Obj
          [
            ("free", Json.Int t.status_time.(0));
            ("pending", Json.Int t.status_time.(1));
            ("executing", Json.Int t.status_time.(2));
            ("done", Json.Int t.status_time.(3));
          ] );
      ("steal_attempts", Json.Int t.steal_attempts);
      ("steal_successes", Json.Int t.steal_successes);
      ( "work_units",
        Json.Obj
          [
            ("core", Json.Int t.work_units.(0));
            ("batch", Json.Int t.work_units.(1));
            ("setup", Json.Int t.work_units.(2));
            ("sched", Json.Int t.work_units.(3));
            ("wait", Json.Int t.work_units.(4));
          ] );
      ("batches", Json.Int t.batches);
      ("setup_work", Json.Int t.setup_total);
      ("batch_size", histo_json t.batch_size);
      ("ops", Json.Int t.ops);
      ("op_latency", histo_json t.op_latency);
      ( "batches_while_pending",
        Json.List (Array.to_list (Array.map (fun c -> Json.Int c) t.batches_seen)) );
      ("max_batches_while_pending", Json.Int t.max_batches_seen);
      ( "violations",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun k c ->
                  (Recorder.check_name (Recorder.check_of_code k), Json.Int c))
                t.violations)) );
    ]
