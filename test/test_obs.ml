(* Observability subsystem: ring recorder semantics, Chrome trace-event
   output, JSON round-trips, and summary-vs-metrics cross-checks. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- JSON writer / parser ---- *)

let roundtrip j =
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "JSON did not round-trip: %s" e

let test_json_roundtrip () =
  let open Obs.Json in
  let j =
    Obj
      [
        ("i", Int 42);
        ("neg", Int (-7));
        ("f", Float 1.5);
        ("s", Str "a \"quote\" and \\ and \n control \x01");
        ("unicode", Str "µs — naïve");
        ("l", List [ Null; Bool true; Bool false; Int 0 ]);
        ("empty_l", List []);
        ("empty_o", Obj []);
      ]
  in
  Alcotest.(check bool) "round-trip equal" true (roundtrip j = j);
  (* Non-finite floats must degrade to null, not emit invalid JSON. *)
  (match roundtrip (List [ Float nan; Float infinity ]) with
  | List [ Null; Null ] -> ()
  | _ -> Alcotest.fail "non-finite floats should serialize as null");
  (* The parser must reject trailing garbage and bare words. *)
  (match Obs.Json.parse "{\"a\":1} x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Obs.Json.parse "nul" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare word accepted"

let test_json_float_edges () =
  let open Obs.Json in
  (* Non-finite floats degrade to null on output... *)
  List.iter
    (fun f ->
      Alcotest.(check string)
        "non-finite writes null" "null"
        (to_string (Float f)))
    [ nan; infinity; neg_infinity ];
  (* ...and strict parsing refuses to manufacture them: "nan"/"inf" are
     bare words, and a literal that overflows ("1e999") is rejected
     rather than silently becoming infinity. *)
  List.iter
    (fun s ->
      match parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [ "nan"; "inf"; "infinity"; "1e999"; "-1e999"; "-" ];
  (* Negative zero: the integral fast path prints "-0", which reads
     back as Int 0 — the sign is intentionally dropped on round-trip
     (JSON has no distinct -0 integer, and no consumer cares). *)
  Alcotest.(check string) "-0.0 writes -0" "-0" (to_string (Float (-0.0)));
  (match parse "-0" with
  | Ok (Int 0) -> ()
  | _ -> Alcotest.fail "-0 should parse as Int 0");
  (* Very large finite floats round-trip exactly: %.17g carries full
     double precision. *)
  (match parse (to_string (Float max_float)) with
  | Ok (Float f) when f = max_float -> ()
  | Ok j -> Alcotest.failf "max_float became %s" (to_string j)
  | Error e -> Alcotest.failf "max_float did not parse: %s" e);
  (match parse (to_string (Float 1.2345678901234567)) with
  | Ok (Float f) when f = 1.2345678901234567 -> ()
  | _ -> Alcotest.fail "precise float should round-trip exactly");
  (* Integral floats below 1e15 print as digit strings and reparse as
     Int — the snapshot stream leans on this for counter fields. *)
  (match parse (to_string (Float 12345.0)) with
  | Ok (Int 12345) -> ()
  | _ -> Alcotest.fail "integral float should reparse as Int");
  match parse (to_string (Float 0.5)) with
  | Ok (Float 0.5) -> ()
  | _ -> Alcotest.fail "0.5 should round-trip"

(* ---- Histo.merge: property test ---- *)

let histo_of_list xs =
  let h = Obs.Summary.Histo.create () in
  List.iter (Obs.Summary.Histo.add h) xs;
  h

let qcheck_histo_merge =
  (* merge x y must equal a histogram fed the union of both sample
     lists — exact, because buckets are fixed power-of-two ranges. *)
  QCheck.Test.make ~name:"Histo.merge equals union" ~count:300
    (let sample =
       (* mostly small values, occasionally a huge one to cross buckets *)
       QCheck.(
         frequency
           [ (4, int_bound 4096); (1, map (fun i -> i land max_int) int) ])
     in
     QCheck.(pair (small_list sample) (small_list sample)))
    (fun (xs, ys) ->
      let open Obs.Summary.Histo in
      let h1 = histo_of_list xs and h2 = histo_of_list ys in
      let m = merge h1 h2 in
      let u = histo_of_list (xs @ ys) in
      count m = count u
      && total m = total u
      && min_v m = min_v u
      && max_v m = max_v u
      && buckets m = buckets u
      (* and neither input may be mutated *)
      && count h1 = List.length xs
      && count h2 = List.length ys)

(* ---- ring recorder ---- *)

let test_ring_wraparound () =
  (* Capacity rounds up to a power of two; overflow drops the oldest. *)
  let rc = Obs.Recorder.create ~capacity:10 ~clock:Obs.Recorder.Timesteps ~workers:1 () in
  let n = 100 in
  for t = 0 to n - 1 do
    Obs.Recorder.emit_op_issue rc ~worker:0 ~time:t ~sid:0
  done;
  let cap = 16 in
  check "length is capacity" cap (Obs.Recorder.length rc ~worker:0);
  check "dropped counts overflow" (n - cap) (Obs.Recorder.dropped rc ~worker:0);
  check "total_dropped" (n - cap) (Obs.Recorder.total_dropped rc);
  (* Survivors are exactly the most recent [cap] events, in order. *)
  let evs = Obs.Recorder.events_of_worker rc 0 in
  check "survivor count" cap (List.length evs);
  List.iteri
    (fun i (e : Obs.Recorder.event) ->
      check "survivor time" (n - cap + i) e.Obs.Recorder.time)
    evs

let test_disabled_recorder_no_op () =
  let rc = Obs.Recorder.null in
  check_bool "null is disabled" false (Obs.Recorder.enabled rc);
  (* Emitting into the disabled recorder must not allocate: the hot
     path in the sim and runtime stays free when tracing is off. All
     emitter arguments here are immediate ints/bools, so any minor-heap
     growth would come from the recorder itself. *)
  let words_before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Obs.Recorder.emit_status rc ~worker:0 ~time:i Obs.Recorder.Executing;
    Obs.Recorder.emit_steal rc ~worker:0 ~time:i ~victim:1 ~success:true
      ~batch_deque:false;
    Obs.Recorder.emit_batch_start rc ~worker:0 ~time:i ~sid:0 ~size:4 ~setup:8;
    Obs.Recorder.emit_batch_end rc ~worker:0 ~time:i ~sid:0 ~size:4;
    Obs.Recorder.emit_op_issue rc ~worker:0 ~time:i ~sid:0;
    Obs.Recorder.emit_op_done rc ~worker:0 ~time:i ~sid:0 ~batches_seen:1
      ~latency:5
  done;
  let words_after = Gc.minor_words () in
  let delta = words_after -. words_before in
  (* Gc.minor_words itself boxes a float per call; allow that slack but
     nothing proportional to the 60k emits. *)
  if delta > 256. then
    Alcotest.failf "disabled recorder allocated %.0f minor words" delta;
  check "null length" 0 (Obs.Recorder.length rc ~worker:0)

let test_enabled_recorder_no_alloc () =
  (* The ENABLED hot path must also be allocation-free: [Clock.now_ns]
     is a [@@noalloc] external with an unboxed int64 result (the boxed
     wrapper it replaced cost one minor allocation per timestamp), and
     each emitter is five int-array stores. Native-code only guarantee,
     which is how the tests are built. *)
  let rc = Obs.Recorder.create ~capacity:64 ~clock:Obs.Recorder.Nanoseconds ~workers:1 () in
  Alcotest.(check bool) "enabled" true (Obs.Recorder.enabled rc);
  (* Warm up so any one-time allocation is out of the way. *)
  for _ = 1 to 3 do
    Obs.Recorder.emit_steal rc ~worker:0 ~time:(Obs.Recorder.now rc) ~victim:0
      ~success:false ~batch_deque:false
  done;
  let words_before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t = Obs.Recorder.now rc in
    Obs.Recorder.emit_status rc ~worker:0 ~time:t Obs.Recorder.Executing;
    Obs.Recorder.emit_steal rc ~worker:0 ~time:t ~victim:1 ~success:true
      ~batch_deque:false;
    Obs.Recorder.emit_steals_suppressed rc ~worker:0 ~time:t ~count:17;
    Obs.Recorder.emit_batch_start rc ~worker:0 ~time:t ~sid:0 ~size:4 ~setup:8;
    Obs.Recorder.emit_batch_end rc ~worker:0 ~time:t ~sid:0 ~size:4;
    Obs.Recorder.emit_op_issue rc ~worker:0 ~time:t ~sid:0;
    Obs.Recorder.emit_op_done rc ~worker:0 ~time:t ~sid:0 ~batches_seen:1
      ~latency:5
  done;
  let delta = Gc.minor_words () -. words_before in
  if delta > 256. then
    Alcotest.failf "enabled recorder hot path allocated %.0f minor words" delta

let test_steals_suppressed_summary () =
  (* A Steals_suppressed event stands for [count] failed attempts that
     were not individually recorded; the summary must fold them back
     into the attempt total (and nothing else). *)
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:2 () in
  Obs.Recorder.emit_steal rc ~worker:0 ~time:1 ~victim:1 ~success:false
    ~batch_deque:false;
  Obs.Recorder.emit_steals_suppressed rc ~worker:0 ~time:5 ~count:40;
  Obs.Recorder.emit_steal rc ~worker:0 ~time:6 ~victim:1 ~success:true
    ~batch_deque:false;
  Obs.Recorder.emit_steal rc ~worker:1 ~time:7 ~victim:0 ~success:true
    ~batch_deque:false;
  (match Obs.Recorder.events_of_worker rc 0 with
  | [ _; { kind = Obs.Recorder.Steals_suppressed { count = 40 }; _ }; _ ] -> ()
  | _ -> Alcotest.fail "suppressed event readback");
  let s = Obs.Summary.of_recorder rc in
  check "attempts include suppressed" 43 s.Obs.Summary.steal_attempts;
  check "successes unchanged" 2 s.Obs.Summary.steal_successes;
  (* And the event renders in the Chrome sink without breaking JSON. *)
  let trace =
    Obs.Chrome.to_string [ { Obs.Chrome.pid = 1; name = "t"; recording = rc } ]
  in
  match Obs.Json.parse trace with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace with suppressed event invalid: %s" e

let test_recorder_event_readback () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:2 () in
  Obs.Recorder.emit_status rc ~worker:0 ~time:1 Obs.Recorder.Pending;
  Obs.Recorder.emit_steal rc ~worker:1 ~time:2 ~victim:0 ~success:false ~batch_deque:true;
  Obs.Recorder.emit_batch_start rc ~worker:0 ~time:3 ~sid:7 ~size:5 ~setup:16;
  Obs.Recorder.emit_op_done rc ~worker:1 ~time:4 ~sid:7 ~batches_seen:2 ~latency:3;
  (match Obs.Recorder.all_events rc with
  | [ e1; e2; e3; e4 ] ->
      (match e1.Obs.Recorder.kind with
      | Obs.Recorder.Status Obs.Recorder.Pending -> ()
      | _ -> Alcotest.fail "event 1 kind");
      (match e2.Obs.Recorder.kind with
      | Obs.Recorder.Steal { victim = 0; success = false; batch_deque = true } -> ()
      | _ -> Alcotest.fail "event 2 kind");
      (match e3.Obs.Recorder.kind with
      | Obs.Recorder.Batch_start { sid = 7; size = 5; setup = 16 } -> ()
      | _ -> Alcotest.fail "event 3 kind");
      (match e4.Obs.Recorder.kind with
      | Obs.Recorder.Op_done { sid = 7; batches_seen = 2; latency = 3 } -> ()
      | _ -> Alcotest.fail "event 4 kind");
      check "merged order" 1 e1.Obs.Recorder.time;
      check "merged order last" 4 e4.Obs.Recorder.time
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs))

(* ---- instrumented simulator runs ---- *)

let sim_workload ?(n = 200) () =
  Sim.Workload.parallel_ops
    ~model:(Batched.Skiplist.sim_model ~initial_size:100_000 ~records_per_node:10 ())
    ~records_per_node:10 ~n_nodes:n ()

let run_recorded ?(p = 4) ?(invariants = Obs.Invariants.null) () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:p () in
  let m =
    Sim.Batcher.run
      ~probe:(Obs.Probe.create ~recorder:rc ~invariants ())
      (Sim.Batcher.default ~p) (sim_workload ())
  in
  (rc, m)

(* Σ of one per-structure field. *)
let structure_sum f (s : Obs.Summary.t) =
  Array.fold_left (fun acc sa -> acc + f sa) 0 s.Obs.Summary.per_structure

let test_sim_recording_matches_metrics () =
  (* Recorder and invariant checkers ride on one probe: each sees every op
     and every batch exactly once. *)
  let inv = Obs.Invariants.create ~structures:1 () in
  let rc, m = run_recorded ~invariants:inv () in
  check "no violations" 0 (Obs.Invariants.total_violations inv);
  check "pending balance drained" 0 (Obs.Invariants.pending inv ~sid:0);
  let s = Obs.Summary.of_recorder rc in
  check "batches" m.Sim.Metrics.batches
    (structure_sum (fun sa -> sa.Obs.Summary.sa_batches) s);
  check "batch size total" m.Sim.Metrics.batch_size_total
    (Obs.Summary.Histo.total s.Obs.Summary.batch_size);
  check "max batch size" m.Sim.Metrics.max_batch_size
    (Obs.Summary.Histo.max_v s.Obs.Summary.batch_size);
  check "ops" 200 (Obs.Summary.Histo.count s.Obs.Summary.op_latency);
  check "steal attempts" m.Sim.Metrics.steal_attempts s.Obs.Summary.steal_attempts;
  check "steal successes" m.Sim.Metrics.steal_successes s.Obs.Summary.steal_successes;
  check "setup work" m.Sim.Metrics.setup_work
    (structure_sum (fun sa -> sa.Obs.Summary.sa_setup) s);
  check "lemma2 max" m.Sim.Metrics.max_batches_while_pending
    s.Obs.Summary.max_batches_seen;
  (* The empirical Lemma-2 statement under the paper's scheduler. *)
  check_bool "lemma2 bound" true (s.Obs.Summary.max_batches_seen <= 2);
  check "no drops at default capacity" 0 s.Obs.Summary.dropped

let test_sim_unrecorded_run_unchanged () =
  (* The recorder must be purely observational: metrics with and
     without it are identical. *)
  let _, m_rec = run_recorded () in
  let m_plain = Sim.Batcher.run (Sim.Batcher.default ~p:4) (sim_workload ()) in
  check "makespan" m_plain.Sim.Metrics.makespan m_rec.Sim.Metrics.makespan;
  check "batches" m_plain.Sim.Metrics.batches m_rec.Sim.Metrics.batches;
  check "steals" m_plain.Sim.Metrics.steal_attempts m_rec.Sim.Metrics.steal_attempts

let test_sim_trace_deterministic () =
  let chrome () =
    let rc, _ = run_recorded () in
    Obs.Chrome.to_string [ { Obs.Chrome.pid = 1; name = "sim"; recording = rc } ]
  in
  let a = chrome () and b = chrome () in
  check_bool "same seed, byte-identical trace" true (String.equal a b)

(* ---- Chrome trace-event output ---- *)

let field name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "trace event missing %S: %s" name (Obs.Json.to_string j)

let as_int name j =
  match field name j with
  | Obs.Json.Int i -> i
  | Obs.Json.Float f -> int_of_float f
  | _ -> Alcotest.failf "field %S not a number" name

let test_chrome_json_valid () =
  let rc, _ = run_recorded () in
  let s = Obs.Chrome.to_string [ { Obs.Chrome.pid = 1; name = "sim"; recording = rc } ] in
  let j =
    match Obs.Json.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome output is not valid JSON: %s" e
  in
  let events =
    match Obs.Json.member "traceEvents" j with
    | Some l -> (
        match Obs.Json.to_list_opt l with
        | Some evs -> evs
        | None -> Alcotest.fail "traceEvents is not a list")
    | None -> Alcotest.fail "no traceEvents key"
  in
  check_bool "has events" true (List.length events > 100);
  (* Every event has the required trace-event fields; durations are
     non-negative; per-(pid,tid) timestamps are monotone. *)
  let last : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        match field "ph" ev with
        | Obs.Json.Str s -> s
        | _ -> Alcotest.fail "ph not a string"
      in
      Hashtbl.replace phases ph ();
      let pid = as_int "pid" ev and tid = as_int "tid" ev in
      check "pid" 1 pid;
      if ph <> "M" then begin
        let ts = as_int "ts" ev in
        check_bool "ts >= 0" true (ts >= 0);
        if ph = "X" then
          check_bool "dur >= 0" true (as_int "dur" ev >= 0);
        let key = (pid, tid) in
        (match Hashtbl.find_opt last key with
        | Some prev -> check_bool "monotone ts per track" true (ts >= prev)
        | None -> ());
        Hashtbl.replace last key ts
      end)
    events;
  check_bool "has complete spans" true (Hashtbl.mem phases "X");
  check_bool "has instants" true (Hashtbl.mem phases "i");
  check_bool "has metadata" true (Hashtbl.mem phases "M");
  (* Batch spans live on their synthetic per-structure track. *)
  check_bool "batch track present" true
    (Hashtbl.fold (fun (_, tid) _ acc -> acc || tid = Obs.Chrome.batch_tid_base) last false)

(* The request view over hand-built spans: two structures whose
   batches overlap in time, one batch of two ops, and two overlapping
   requests of one class. *)
let test_chrome_request_view () =
  let mk ~token ~cls ~sid ~arrive q sp p e post =
    {
      Obs.Reqtrace.token;
      cls;
      sid;
      sampled = true;
      arrive_ns = arrive;
      latency_ns = q + sp + p + e + post;
      queue_ns = q;
      sched_pre_ns = sp;
      pending_ns = p;
      exec_ns = e;
      sched_post_ns = post;
      batches_seen = 1;
      w_start = 0;
      w_batch = 0;
      w_done = 0;
    }
  in
  let spans =
    [
      (* tokens 0 and 1 share structure 0's batch at [1000, 1500) *)
      mk ~token:0 ~cls:0 ~sid:0 ~arrive:100 100 200 600 500 50;
      mk ~token:1 ~cls:0 ~sid:0 ~arrive:300 50 150 500 500 100;
      (* structure 1's batch [1100, 1300) overlaps it in time *)
      mk ~token:2 ~cls:1 ~sid:1 ~arrive:400 0 100 600 200 0;
      (* structure 0's next batch starts as the first one ends *)
      mk ~token:3 ~cls:1 ~sid:0 ~arrive:1200 100 0 200 300 10;
    ]
  in
  let events =
    Obs.Chrome.requests ~pid:3 ~name:"point" ~classes:[| "get"; "put" |]
      (List.rev spans)
  in
  let str name ev =
    match field name ev with Obs.Json.Str s -> s | _ -> Alcotest.fail name
  in
  let num name ev =
    match Obs.Json.to_float_opt (field name ev) with
    | Some f -> f
    | None -> Alcotest.failf "field %S not a number" name
  in
  let timed = List.filter (fun ev -> str "ph" ev <> "M") events in
  let on_track pred = List.filter (fun ev -> pred (as_int "tid" ev)) timed in
  let slices pred =
    List.filter (fun ev -> str "ph" ev = "X") (on_track pred)
  in
  let eps = 1e-9 in
  (* Each batch gets exactly one slice, and no two slices of one
     structure track overlap. *)
  let batches tid = slices (( = ) tid) in
  let b0 = batches Obs.Chrome.batch_tid_base
  and b1 = batches (Obs.Chrome.batch_tid_base + 1) in
  check "structure 0 batches" 2 (List.length b0);
  check "structure 1 batches" 1 (List.length b1);
  List.iter
    (fun track ->
      ignore
        (List.fold_left
           (fun last ev ->
             check_bool "no overlap on a structure track" true
               (num "ts" ev >= last -. eps);
             num "ts" ev +. num "dur" ev)
           neg_infinity track))
    [ b0; b1 ];
  (* Every flow start has its finish. *)
  let flows ph =
    List.sort compare
      (List.filter_map
         (fun ev -> if str "ph" ev = ph then Some (as_int "id" ev) else None)
         timed)
  in
  check "one flow per request" 4 (List.length (flows "s"));
  Alcotest.(check (list int)) "every s has its f" (flows "s") (flows "f");
  (* ts is monotone on every track. *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let tid = as_int "tid" ev and ts = num "ts" ev in
      (match Hashtbl.find_opt last tid with
      | Some prev -> check_bool "monotone ts per track" true (ts >= prev)
      | None -> ());
      Hashtbl.replace last tid ts)
    timed;
  (* A request's phase slices tile its latency from its arrival; the
     earliest arrival is ts 0. *)
  let phases = slices (fun tid -> tid < Obs.Chrome.batch_tid_base) in
  List.iter
    (fun (s : Obs.Reqtrace.span) ->
      let mine =
        List.filter
          (fun ev -> as_int "token" (field "args" ev) = s.Obs.Reqtrace.token)
          phases
      in
      let tid = as_int "tid" (List.hd mine) in
      let fin =
        List.fold_left
          (fun at ev ->
            check "one track per request" tid (as_int "tid" ev);
            Alcotest.(check (float eps)) "phases back to back" at (num "ts" ev);
            at +. num "dur" ev)
          (float_of_int (s.Obs.Reqtrace.arrive_ns - 100) /. 1e3)
          mine
      in
      Alcotest.(check (float eps))
        "phases tile the latency"
        (float_of_int
           (s.Obs.Reqtrace.arrive_ns + s.Obs.Reqtrace.latency_ns - 100)
        /. 1e3)
        fin)
    spans;
  (* The two overlapping get requests sit on two lanes. *)
  let tid_of token =
    as_int "tid"
      (List.find (fun ev -> as_int "token" (field "args" ev) = token) phases)
  in
  check_bool "overlapping requests of a class on two lanes" true
    (tid_of 0 <> tid_of 1)

(* ---- summary JSON ---- *)

let test_summary_json () =
  let rc, m = run_recorded () in
  let s = Obs.Summary.of_recorder rc in
  let j = roundtrip (Obs.Summary.to_json s) in
  (match Obs.Json.member "per_structure" j with
  | Some (Obs.Json.List l) ->
      check "json batches" m.Sim.Metrics.batches
        (List.fold_left
           (fun acc sa ->
             match Obs.Json.member "batches" sa with
             | Some (Obs.Json.Int b) -> acc + b
             | _ -> Alcotest.fail "summary json structure missing batches")
           0 l)
  | _ -> Alcotest.fail "summary json missing per_structure");
  match Obs.Json.member "max_batches_while_pending" j with
  | Some (Obs.Json.Int v) ->
      check "json lemma2" m.Sim.Metrics.max_batches_while_pending v
  | _ -> Alcotest.fail "summary json missing max_batches_while_pending"

(* ---- real runtime ---- *)

let test_runtime_recording_smoke () =
  let p = 3 in
  let n = 200 in
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:p () in
  let pool =
    Runtime.Pool.create ~probe:(Obs.Probe.create ~recorder:rc ()) ~num_workers:p
      ()
  in
  let counter = Batched.Counter.create () in
  let b =
    Runtime.Batcher_rt.create ~pool ~state:counter
      ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
      ()
  in
  Runtime.Pool.run pool (fun () ->
      Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
          Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
  Runtime.Pool.teardown pool;
  check "counter value" n (Batched.Counter.value counter);
  let s = Obs.Summary.of_recorder rc in
  check "every op completed" n
    (Obs.Summary.Histo.count s.Obs.Summary.op_latency);
  check "batch sizes sum to ops" n (Obs.Summary.Histo.total s.Obs.Summary.batch_size);
  let st = Runtime.Batcher_rt.stats b in
  check "batch events match stats" st.Runtime.Batcher_rt.batches
    (structure_sum (fun sa -> sa.Obs.Summary.sa_batches) s);
  check_bool "latencies positive" true
    (Obs.Summary.Histo.min_v s.Obs.Summary.op_latency > 0);
  (* And the combined two-process trace is valid JSON. *)
  let trace =
    Obs.Chrome.to_string [ { Obs.Chrome.pid = 2; name = "runtime"; recording = rc } ]
  in
  match Obs.Json.parse trace with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "runtime chrome trace invalid: %s" e

let test_recorder_clock_mismatch_rejected () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:4 () in
  (match
     Runtime.Pool.create ~probe:(Obs.Probe.create ~recorder:rc ())
       ~num_workers:4 ()
   with
  | exception Invalid_argument _ -> ()
  | pool ->
      Runtime.Pool.teardown pool;
      Alcotest.fail "pool accepted a Timesteps recorder");
  let rc_ns = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:2 () in
  (match
     Sim.Batcher.run ~probe:(Obs.Probe.create ~recorder:rc_ns ())
       (Sim.Batcher.default ~p:2) (sim_workload ~n:4 ())
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sim accepted a Nanoseconds recorder");
  let health = Obs.Health.create ~workers:2 ~structures:1 () in
  match
    Sim.Batcher.run ~probe:(Obs.Probe.create ~health ())
      (Sim.Batcher.default ~p:2) (sim_workload ~n:4 ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sim accepted a wall-clock Health"

(* ---- Histo.percentile edges ---- *)

let test_histo_percentile_edges () =
  let module H = Obs.Summary.Histo in
  (* Empty histogram: every percentile is 0 by convention. *)
  let h = H.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (H.percentile h 0.5);
  (* Single bucket, single value: the bucket range is clamped to the
     observed min/max, so every q collapses to that value. *)
  let h1 = H.create () in
  for _ = 1 to 7 do
    H.add h1 42
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single-value p%g" (100.0 *. q))
        42.0 (H.percentile h1 q))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
  (* p0 and p100 are the exact observed extremes, not bucket edges
     (the values 3 and 1000 sit strictly inside their power-of-two
     buckets [2,3] and [1024,2047]... 1000 is in [512,1023]). *)
  let h2 = H.create () in
  List.iter (H.add h2) [ 3; 10; 10; 17; 1000 ];
  Alcotest.(check (float 0.0)) "p0 = min" 3.0 (H.percentile h2 0.0);
  Alcotest.(check (float 0.0)) "p100 = max" 1000.0 (H.percentile h2 1.0);
  (* Out-of-range q clamps rather than raising. *)
  Alcotest.(check (float 0.0)) "q<0 clamps" 3.0 (H.percentile h2 (-1.0));
  Alcotest.(check (float 0.0)) "q>1 clamps" 1000.0 (H.percentile h2 2.0);
  (* Monotone in q. *)
  let last = ref neg_infinity in
  List.iter
    (fun q ->
      let v = H.percentile h2 q in
      check_bool "monotone" true (v >= !last);
      last := v)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let test_histo_percentile_truncated_ring () =
  (* A wrapped ring keeps only the most recent events; the summary's
     histograms — and their percentiles — must describe the survivors
     exactly, not the dropped prefix. *)
  let rc =
    Obs.Recorder.create ~capacity:16 ~clock:Obs.Recorder.Timesteps ~workers:1 ()
  in
  let n = 100 in
  for t = 0 to n - 1 do
    Obs.Recorder.emit_op_done rc ~worker:0 ~time:t ~sid:0 ~batches_seen:1
      ~latency:(t + 1)
  done;
  let s = Obs.Summary.of_recorder rc in
  check "drops recorded" (n - 16) s.Obs.Summary.dropped;
  let h = s.Obs.Summary.op_latency in
  (* Survivors are latencies 85..100. *)
  Alcotest.(check (float 0.0))
    "p0 = oldest surviving latency" 85.0
    (Obs.Summary.Histo.percentile h 0.0);
  Alcotest.(check (float 0.0))
    "p100 = newest latency" 100.0
    (Obs.Summary.Histo.percentile h 1.0);
  let p50 = Obs.Summary.Histo.percentile h 0.5 in
  check_bool "p50 within survivor range" true (p50 >= 85.0 && p50 <= 100.0)

(* ---- Work events ---- *)

let test_work_event_readback () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:1 () in
  Obs.Recorder.emit_work rc ~worker:0 ~time:10 ~cls:Obs.Recorder.Wbatch
    ~units:7;
  Obs.Recorder.emit_work rc ~worker:0 ~time:11 ~cls:Obs.Recorder.Wsched
    ~units:1;
  (match Obs.Recorder.all_events rc with
  | [ e1; e2 ] ->
      (match e1.Obs.Recorder.kind with
      | Obs.Recorder.Work { cls = Obs.Recorder.Wbatch; units = 7 } -> ()
      | _ -> Alcotest.fail "work event 1 kind");
      (match e2.Obs.Recorder.kind with
      | Obs.Recorder.Work { cls = Obs.Recorder.Wsched; units = 1 } -> ()
      | _ -> Alcotest.fail "work event 2 kind")
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  let s = Obs.Summary.of_recorder rc in
  check "work units batch" 7 s.Obs.Summary.total.batch;
  check "work units sched" 1 s.Obs.Summary.total.sched

(* ---- attribution ---- *)

let run_recorded_cfg cfg workload =
  let rc =
    Obs.Recorder.create ~clock:Obs.Recorder.Timesteps
      ~workers:cfg.Sim.Batcher.p ()
  in
  let m =
    Sim.Batcher.run ~probe:(Obs.Probe.create ~recorder:rc ()) cfg workload
  in
  (rc, m)

let check_sim_attrib (cfg, workload) =
  let rc, m = run_recorded_cfg cfg (workload ()) in
  let s = Obs.Summary.of_recorder rc in
  (match Obs.Summary.check ~expected:(m.Sim.Metrics.p * m.Sim.Metrics.makespan) s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "conservation (p=%d): %s" m.Sim.Metrics.p e);
  check "core = sim core_work" m.Sim.Metrics.core_work s.Obs.Summary.total.core;
  check "batch = sim batch_work" m.Sim.Metrics.batch_work s.Obs.Summary.total.batch;
  check "setup = sim setup_work" m.Sim.Metrics.setup_work s.Obs.Summary.total.setup;
  check_bool "span_realized positive" true (m.Sim.Metrics.span_realized > 0);
  check_bool "span_realized <= makespan" true
    (m.Sim.Metrics.span_realized <= m.Sim.Metrics.makespan)

let test_attrib_sim_conservation () =
  (* Exact bucket conservation must hold across scheduler shapes, not
     just the paper default, and across workloads: one record per node
     on a counter, and a counter interleaved with a skip list. Every
     (worker, timestep) does exactly one classifiable thing. *)
  let skiplist () = sim_workload () in
  let counter () = Batcher_core.Experiments.(closed_sim (closed_counter ~calls:200)) in
  let interleaved () = Batcher_core.Experiments.(closed_sim (closed_multi ~calls:200)) in
  List.iter check_sim_attrib
    ([
       (Sim.Batcher.default ~p:1, skiplist);
       (Sim.Batcher.default ~p:4, skiplist);
       ( { (Sim.Batcher.default ~p:3) with Sim.Batcher.overhead = Sim.Batcher.No_setup },
         skiplist );
       ( { (Sim.Batcher.default ~p:5) with
           Sim.Batcher.steal_policy = Sim.Batcher.Core_only;
           seed = 9 },
         skiplist );
       ({ (Sim.Batcher.default ~p:4) with Sim.Batcher.launch_threshold = 4 }, skiplist);
     ]
    @ List.concat_map
        (fun p -> [ (Sim.Batcher.default ~p, counter); (Sim.Batcher.default ~p, interleaved) ])
        [ 2; 4 ])

(* A recorded counter run on a [p]-worker pool; [slow_ns] busy-waits
   inside each BOP. *)
let recorded_counter_run ~p ~n ?(slow_ns = 0) () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:p () in
  let pool =
    Runtime.Pool.create ~probe:(Obs.Probe.create ~recorder:rc ()) ~num_workers:p
      ()
  in
  let counter = Batched.Counter.create () in
  let b =
    Runtime.Batcher_rt.create ~pool ~state:counter
      ~run_batch:(fun _pool st ops ->
        let until = Obs.Clock.now_ns () + slow_ns in
        while Obs.Clock.now_ns () < until do
          Domain.cpu_relax ()
        done;
        Batched.Counter.run_batch st ops)
      ()
  in
  Runtime.Pool.run pool (fun () ->
      Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
          Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
  Runtime.Pool.teardown pool;
  check "every op counted" n (Batched.Counter.value counter);
  rc

let test_attrib_runtime_tiling () =
  (* Runtime buckets must tile each worker's observed span exactly:
     class segments are emitted back to back in integer nanoseconds. *)
  let p = 3 in
  let rc = recorded_counter_run ~p ~n:300 () in
  let s = Obs.Summary.of_recorder rc in
  (match Obs.Summary.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "runtime tiling: %s" e);
  check "all workers accounted" p (Array.length s.Obs.Summary.per_worker);
  check_bool "some core time" true (s.Obs.Summary.total.core > 0);
  check_bool "some batch time" true (s.Obs.Summary.total.batch > 0);
  check_bool "covered > 0" true (Obs.Summary.bucket_total s.Obs.Summary.total > 0);
  (* Runtime recordings have no sim-style idle: a free worker's
     between-task time is sched. *)
  check "no idle bucket" 0 s.Obs.Summary.total.idle;
  let starts = ref 0 in
  List.iter
    (fun e ->
      match e.Obs.Recorder.kind with
      | Obs.Recorder.Batch_start _ -> incr starts
      | _ -> ())
    (Obs.Recorder.all_events rc);
  check_bool "batches recorded" true (!starts > 0)

let test_attrib_runtime_wait () =
  (* Two workers and a BOP that takes ~50us: a worker trapped in
     BATCHIFY while the other runs the batch spends that time in the
     wait bucket, and the buckets still tile each worker's span. *)
  let rc = recorded_counter_run ~p:2 ~n:200 ~slow_ns:50_000 () in
  let s = Obs.Summary.of_recorder rc in
  (match Obs.Summary.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "runtime tiling: %s" e);
  check_bool "trapped time lands in wait" true (s.Obs.Summary.total.wait > 0);
  check_bool "batch time recorded" true (s.Obs.Summary.total.batch > 0)

let test_runtime_status_time () =
  (* The runtime emits no Status events, so each worker is free for
     exactly its observed span — the span conservation measures. *)
  let s = Obs.Summary.of_recorder (recorded_counter_run ~p:2 ~n:100 ()) in
  Array.iter
    (fun (wa : Obs.Summary.worker_account) ->
      let span = wa.wa_last - wa.wa_first in
      check "status time sums to the span" span
        (Array.fold_left ( + ) 0 wa.wa_status);
      check "all of it free" span wa.wa_status.(0))
    s.Obs.Summary.per_worker

let test_sim_wait () =
  (* On the simulator, trapped workers' failed steals are the wait
     bucket; with them, the six buckets are exactly P x makespan. *)
  let rc, m = run_recorded () in
  let s = Obs.Summary.of_recorder rc in
  check_bool "wait positive" true (s.Obs.Summary.total.wait > 0);
  check "buckets sum to P x makespan"
    (m.Sim.Metrics.p * m.Sim.Metrics.makespan)
    (Obs.Summary.bucket_total s.Obs.Summary.total)

let test_wrapped_batch () =
  (* A 4-slot ring: the first Batch_start is overwritten, its Batch_end
     survives. The end still counts as a batch, but no duration: busy
     and the witness see only the paired batch [11, 14]. *)
  let rc =
    Obs.Recorder.create ~capacity:4 ~clock:Obs.Recorder.Timesteps ~workers:1 ()
  in
  Obs.Recorder.emit_batch_start rc ~worker:0 ~time:1 ~sid:0 ~size:1 ~setup:0;
  Obs.Recorder.emit_op_issue rc ~worker:0 ~time:2 ~sid:0;
  Obs.Recorder.emit_batch_end rc ~worker:0 ~time:10 ~sid:0 ~size:1;
  Obs.Recorder.emit_batch_start rc ~worker:0 ~time:11 ~sid:0 ~size:1 ~setup:0;
  Obs.Recorder.emit_batch_end rc ~worker:0 ~time:14 ~sid:0 ~size:1;
  let s = Obs.Summary.of_recorder rc in
  check "one event dropped" 1 s.Obs.Summary.dropped;
  (match s.Obs.Summary.per_structure with
  | [| sa |] ->
      check "both ends count" 2 sa.Obs.Summary.sa_batches;
      check "one launch survives" 1 sa.Obs.Summary.sa_ops;
      check "busy is the paired batch" 3 sa.Obs.Summary.sa_busy;
      check "longest is the paired batch" 3 sa.Obs.Summary.sa_longest
  | a -> Alcotest.failf "expected one structure, got %d" (Array.length a));
  check "witness leaves the unpaired end out" 3 s.Obs.Summary.t_inf_witness;
  match Obs.Summary.check s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "check accepted a wrapped recording"

let test_attrib_json () =
  let rc, m = run_recorded () in
  let j = roundtrip (Obs.Summary.to_json (Obs.Summary.of_recorder rc)) in
  (match Obs.Json.member "total" j with
  | Some tot -> (
      match Obs.Json.member "batch" tot with
      | Some (Obs.Json.Int b) ->
          check "json batch bucket" m.Sim.Metrics.batch_work b
      | _ -> Alcotest.fail "attrib json missing total.batch")
  | None -> Alcotest.fail "attrib json missing total");
  match Obs.Json.member "per_worker" j with
  | Some (Obs.Json.List l) -> check "per-worker rows" 4 (List.length l)
  | _ -> Alcotest.fail "attrib json missing per_worker"

(* ---- critical path ---- *)

let test_critpath_sim () =
  let rc, m = run_recorded () in
  let s = Obs.Summary.of_recorder rc in
  check_bool "witness positive" true (s.Obs.Summary.t_inf_witness > 0);
  check_bool "witness <= makespan" true
    (s.Obs.Summary.t_inf_witness <= m.Sim.Metrics.makespan);
  let total_batches = structure_sum (fun sa -> sa.Obs.Summary.sa_batches) s in
  check "chains see every batch" m.Sim.Metrics.batches total_batches;
  Array.iter
    (fun (sa : Obs.Summary.structure_account) ->
      check_bool "serial chain <= makespan" true
        (sa.sa_busy <= m.Sim.Metrics.makespan);
      check_bool "longest <= serial" true (sa.sa_longest <= sa.sa_busy))
    s.Obs.Summary.per_structure;
  (* top-k is sorted by decreasing length. *)
  let rec sorted = function
    | (a : Obs.Summary.segment) :: (b :: _ as rest) ->
        a.sg_len >= b.sg_len && sorted rest
    | _ -> true
  in
  check_bool "top sorted" true (sorted s.Obs.Summary.top);
  check_bool "top bounded" true (List.length s.Obs.Summary.top <= 10)

(* ---- snapshots ---- *)

let test_snapshot_jsonl () =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:2 () in
  let path = Filename.temp_file "snap" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Obs.Snapshot.to_file rc ~path in
      Obs.Recorder.emit_steal rc ~worker:0 ~time:1 ~victim:1 ~success:false
        ~batch_deque:false;
      Obs.Snapshot.sample ~time:1 s;
      Obs.Recorder.emit_steal rc ~worker:1 ~time:2 ~victim:0 ~success:true
        ~batch_deque:false;
      Obs.Recorder.emit_work rc ~worker:1 ~time:3 ~cls:Obs.Recorder.Wcore
        ~units:2;
      Obs.Snapshot.sample ~time:3 s;
      Obs.Snapshot.close s;
      (* Sampling after close must be a no-op, not a crash. *)
      Obs.Snapshot.sample ~time:4 s;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check "two lines" 2 (List.length lines);
      let parse l =
        match Obs.Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad snapshot line %S: %s" l e
      in
      let geti key j =
        match Option.bind (Obs.Json.member key j) Obs.Json.to_float_opt with
        | Some f -> int_of_float f
        | None -> Alcotest.failf "snapshot line missing %s" key
      in
      let l1 = parse (List.nth lines 0) and l2 = parse (List.nth lines 1) in
      check "seq 0" 0 (geti "seq" l1);
      check "seq 1" 1 (geti "seq" l2);
      check "t of sample 2" 3 (geti "t" l2);
      let steal j part =
        match Obs.Json.member part j with
        | Some p -> geti "steal" p
        | None -> Alcotest.failf "missing %s" part
      in
      check "totals after 1 steal" 1 (steal l1 "totals");
      check "totals after 2 steals" 2 (steal l2 "totals");
      check "delta is 1 new steal" 1 (steal l2 "deltas");
      let work j part =
        match Obs.Json.member part j with
        | Some p -> geti "work" p
        | None -> Alcotest.failf "missing %s" part
      in
      check "work delta" 1 (work l2 "deltas"))

(* ---- request-scoped span tracing (Reqtrace) ---- *)

let qcheck_reqtrace_reservoir =
  (* The slowest-K reservoir is exact, not probabilistic: after any
     offer stream, the merged readout is the true top-K of the stream.
     Latencies are compared as sorted multisets (ties may resolve to
     either token), and every returned token must map back to the
     latency it was offered with. *)
  QCheck.Test.make ~name:"Reqtrace reservoir equals exact top-K" ~count:300
    QCheck.(pair (1 -- 12) (small_list (0 -- 1000)))
    (fun (k, lats) ->
      let n = List.length lats in
      let rt =
        Obs.Reqtrace.create ~k ~workers:1 ~classes:1 ~capacity:(max 1 n) ()
      in
      List.iteri
        (fun i lat -> Obs.Reqtrace.offer rt ~worker:0 ~cls:0 ~token:i ~lat)
        lats;
      let got = Obs.Reqtrace.reservoir rt in
      let expect =
        List.filteri
          (fun i _ -> i < k)
          (List.sort (fun a b -> compare (b : int) a) lats)
      in
      List.map fst got = expect
      && List.for_all (fun (lat, tok) -> List.nth lats tok = lat) got)

let test_reqtrace_reservoir_concurrent () =
  (* Per-(worker, class) segments are single-writer, so concurrent
     offers from distinct domains need no synchronization — and must
     lose nothing: the merged readout is still the exact top-K of the
     union of all streams. *)
  let workers = 4 and n_per = 5_000 and k = 16 in
  let rt =
    Obs.Reqtrace.create ~k ~workers ~classes:1 ~capacity:(workers * n_per) ()
  in
  (* Deterministic well-mixed latencies; tokens partition by domain. *)
  let lat_of tok = tok * 2654435761 land 0x3FFFFFFF in
  let doms =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to n_per - 1 do
              let tok = (w * n_per) + i in
              Obs.Reqtrace.offer rt ~worker:w ~cls:0 ~token:tok
                ~lat:(lat_of tok)
            done))
  in
  List.iter Domain.join doms;
  let all = Array.init (workers * n_per) lat_of in
  Array.sort (fun a b -> compare (b : int) a) all;
  let expect = Array.to_list (Array.sub all 0 k) in
  let got = Obs.Reqtrace.reservoir rt in
  Alcotest.(check (list int)) "concurrent top-K exact" expect (List.map fst got);
  List.iter
    (fun (lat, tok) ->
      check "reservoir token maps to its latency" (lat_of tok) lat)
    got

let test_reqtrace_hooks_no_alloc () =
  (* The enabled-but-unsampled capture path must be allocation-free:
     every hook is a handful of array stores plus the [@@noalloc]
     clock read, and on_done's reservoir insert shifts plain ints.
     sample_every is huge so no token is export-sampled — sampling
     must not change the capture cost (it only tags the readout). *)
  let n = 10_000 in
  let rt =
    Obs.Reqtrace.create ~sample_every:1_000_000 ~workers:1 ~classes:1
      ~capacity:n ()
  in
  Obs.Reqtrace.on_release rt ~token:0 ~arrive_ns:1 (* warm-up *);
  let before = Gc.minor_words () in
  for tok = 0 to n - 1 do
    Obs.Reqtrace.on_release rt ~token:tok ~arrive_ns:(tok + 1);
    Obs.Reqtrace.on_start rt ~token:tok ~cls:0 ~worker:0;
    Obs.Reqtrace.on_submit rt ~token:tok ~sid:0 ~now:(Obs.Clock.now_ns ());
    Obs.Reqtrace.on_batch rt ~token:tok ~pending:0 ~exec:0 ~seen:1 ~worker:0;
    Obs.Reqtrace.on_done rt ~token:tok ~worker:0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "reqtrace hooks allocated %.0f minor words" delta;
  check "all completed" n (Obs.Reqtrace.completed rt);
  (match Obs.Reqtrace.check rt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The disabled instance and out-of-range tokens are free no-ops. *)
  let before = Gc.minor_words () in
  for tok = 0 to n - 1 do
    Obs.Reqtrace.on_start Obs.Reqtrace.null ~token:tok ~cls:0 ~worker:0;
    Obs.Reqtrace.on_done Obs.Reqtrace.null ~token:tok ~worker:0;
    Obs.Reqtrace.on_start rt ~token:(-1) ~cls:0 ~worker:0;
    Obs.Reqtrace.on_done rt ~token:(n + tok) ~worker:0
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "null/untracked hooks allocated %.0f minor words" delta;
  check "null completed none" 0 (Obs.Reqtrace.completed Obs.Reqtrace.null);
  check "untracked tokens not counted" n (Obs.Reqtrace.completed rt)

let test_reqtrace_sim_spans () =
  (* record_sim is fully deterministic: phases are given, milestones
     derived, so spans, totals and shares are exact by hand. *)
  let rt = Obs.Reqtrace.create ~sample_every:2 ~workers:1 ~classes:3 ~capacity:4 () in
  Obs.Reqtrace.record_sim rt ~token:0 ~cls:1 ~sid:2 ~arrive_ns:100
    ~pending_ns:30 ~exec_ns:70 ~seen:3;
  Obs.Reqtrace.record_sim rt ~token:1 ~cls:0 ~sid:0 ~arrive_ns:150
    ~pending_ns:50 ~exec_ns:100 ~seen:1;
  (* token 3 never completes; span must be None and check unaffected *)
  (match Obs.Reqtrace.span rt 3 with
  | None -> ()
  | Some _ -> Alcotest.fail "incomplete token produced a span");
  (match Obs.Reqtrace.span rt 0 with
  | None -> Alcotest.fail "sim span missing"
  | Some s ->
      check "latency" 100 s.Obs.Reqtrace.latency_ns;
      check "queue zero on virtual clock" 0 s.Obs.Reqtrace.queue_ns;
      check "sched_pre zero" 0 s.Obs.Reqtrace.sched_pre_ns;
      check "pending" 30 s.Obs.Reqtrace.pending_ns;
      check "exec" 70 s.Obs.Reqtrace.exec_ns;
      check "sched_post residual zero" 0 s.Obs.Reqtrace.sched_post_ns;
      check "class" 1 s.Obs.Reqtrace.cls;
      check "sid" 2 s.Obs.Reqtrace.sid;
      check "lemma-2 figure" 3 s.Obs.Reqtrace.batches_seen;
      check_bool "token 0 sampled (mod 2)" true s.Obs.Reqtrace.sampled);
  (match Obs.Reqtrace.span rt 1 with
  | Some s -> check_bool "token 1 unsampled" false s.Obs.Reqtrace.sampled
  | None -> Alcotest.fail "span 1 missing");
  (match Obs.Reqtrace.check rt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let tt = Obs.Reqtrace.totals rt in
  check "totals n" 2 tt.Obs.Reqtrace.n;
  check "totals latency" 250 tt.Obs.Reqtrace.t_latency;
  check "totals pending" 80 tt.Obs.Reqtrace.t_pending;
  check "totals exec" 170 tt.Obs.Reqtrace.t_exec;
  let sh = Obs.Reqtrace.shares tt in
  Alcotest.(check (float 1e-9)) "pending share" 0.32 (List.assoc "pending" sh);
  Alcotest.(check (float 1e-9)) "exec share" 0.68 (List.assoc "exec" sh);
  Alcotest.(check (float 1e-9))
    "disjoint shares sum to 1" 1.0
    (List.fold_left
       (fun acc name -> acc +. List.assoc name sh)
       0.0 Obs.Reqtrace.phase_names);
  (* per-class filtering *)
  let t1 = Obs.Reqtrace.totals ~cls:1 rt in
  check "class filter n" 1 t1.Obs.Reqtrace.n;
  check "class filter latency" 100 t1.Obs.Reqtrace.t_latency;
  match Obs.Reqtrace.slowest rt with
  | [ a; b ] ->
      check "slowest first is worse" 150 a.Obs.Reqtrace.latency_ns;
      check "slowest second" 100 b.Obs.Reqtrace.latency_ns
  | l -> Alcotest.failf "expected 2 slowest spans, got %d" (List.length l)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip and edge cases" `Quick test_json_roundtrip;
          Alcotest.test_case "float edge cases" `Quick test_json_float_edges;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled is a free no-op" `Quick
            test_disabled_recorder_no_op;
          Alcotest.test_case "enabled hot path allocation-free" `Quick
            test_enabled_recorder_no_alloc;
          Alcotest.test_case "steals-suppressed stays truthful" `Quick
            test_steals_suppressed_summary;
          Alcotest.test_case "event readback" `Quick test_recorder_event_readback;
          Alcotest.test_case "clock mismatch rejected" `Quick
            test_recorder_clock_mismatch_rejected;
        ] );
      ( "sim",
        [
          Alcotest.test_case "summary matches metrics" `Quick
            test_sim_recording_matches_metrics;
          Alcotest.test_case "recording is observational" `Quick
            test_sim_unrecorded_run_unchanged;
          Alcotest.test_case "deterministic trace" `Quick test_sim_trace_deterministic;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "valid trace-event JSON" `Quick
            test_chrome_json_valid;
          Alcotest.test_case "request view" `Quick test_chrome_request_view;
        ] );
      ( "summary",
        [
          Alcotest.test_case "summary to_json" `Quick test_summary_json;
          Alcotest.test_case "percentile edges" `Quick
            test_histo_percentile_edges;
          Alcotest.test_case "percentile on truncated ring" `Quick
            test_histo_percentile_truncated_ring;
          QCheck_alcotest.to_alcotest qcheck_histo_merge;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "work event readback" `Quick
            test_work_event_readback;
          Alcotest.test_case "sim conservation across configs" `Quick
            test_attrib_sim_conservation;
          Alcotest.test_case "runtime trapped time is wait" `Quick
            test_attrib_runtime_wait;
          Alcotest.test_case "runtime buckets tile spans" `Quick
            test_attrib_runtime_tiling;
          Alcotest.test_case "attrib to_json" `Quick test_attrib_json;
          Alcotest.test_case "runtime status time is the observed span" `Quick
            test_runtime_status_time;
          Alcotest.test_case "sim wait is conserved" `Quick test_sim_wait;
          Alcotest.test_case "wrapped ring drops the unpaired batch" `Quick
            test_wrapped_batch;
        ] );
      ( "critpath",
        [ Alcotest.test_case "witness and chains" `Quick test_critpath_sim ] );
      ( "snapshot",
        [ Alcotest.test_case "JSONL lines and deltas" `Quick test_snapshot_jsonl ] );
      ( "runtime",
        [ Alcotest.test_case "recording smoke" `Quick test_runtime_recording_smoke ] );
      ( "reqtrace",
        [
          QCheck_alcotest.to_alcotest qcheck_reqtrace_reservoir;
          Alcotest.test_case "concurrent reservoir loses nothing" `Quick
            test_reqtrace_reservoir_concurrent;
          Alcotest.test_case "hooks allocation-free" `Quick
            test_reqtrace_hooks_no_alloc;
          Alcotest.test_case "sim spans, totals, shares" `Quick
            test_reqtrace_sim_spans;
        ] );
    ]
