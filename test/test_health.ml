(* Health-monitoring layer: online invariant checkers, heartbeats,
   stall detection, and the per-structure gauges.

   The mutation tests are the teeth: each checker is fed a seeded
   violation (a double launch, an oversized batch, a fabricated
   collection, a starving op, a frozen structure) and must fire —
   a checker that cannot catch its own bug class is decoration. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let viol inv c =
  (Obs.Invariants.violations inv).(Obs.Invariants.check_code c)

let exact ?(lemma2_bound = 2) ?(structures = 2) () =
  Obs.Invariants.create ~lemma2_bound ~structures ()

(* A structure's op count as the stream carries it; 0 when disabled. *)
let ops hl ~sid =
  match Obs.Json.member "structures" (Obs.Health.to_json hl) with
  | Some (Obs.Json.List l) -> (
      match Obs.Json.member "ops" (List.nth l sid) with
      | Some (Obs.Json.Int n) -> n
      | _ -> Alcotest.fail "structure without ops")
  | _ -> 0

(* ---- mutation tests: every checker fires on its seeded bug ---- *)

let test_inv1_fires () =
  let inv = exact () in
  (* Two batches of structure 0 in flight at once. *)
  Obs.Invariants.op_submitted inv ~sid:0;
  Obs.Invariants.op_submitted inv ~sid:0;
  Obs.Invariants.batch_started inv ~sid:0 ~size:1 ~cap:4;
  Obs.Invariants.batch_started inv ~sid:0 ~size:1 ~cap:4;
  check "inv1 fired" 1 (viol inv Obs.Invariants.Inv1);
  (* Ends audit too: with 2 in flight the first end sees an impossible
     count (fire), the second is the 1 -> 0 step (clean), and a third,
     unmatched end fires again. *)
  Obs.Invariants.batch_ended inv ~sid:0;
  Obs.Invariants.batch_ended inv ~sid:0;
  Obs.Invariants.batch_ended inv ~sid:0;
  check "ends audited" 3 (viol inv Obs.Invariants.Inv1);
  check "only inv1" 3 (Obs.Invariants.total_violations inv)

let test_inv2_fires () =
  let inv = exact () in
  for _ = 1 to 5 do
    Obs.Invariants.op_submitted inv ~sid:1
  done;
  (* Size over the declared cap. *)
  Obs.Invariants.batch_started inv ~sid:1 ~size:5 ~cap:4;
  check "inv2 fired" 1 (viol inv Obs.Invariants.Inv2);
  check "inv1 clean" 0 (viol inv Obs.Invariants.Inv1);
  Obs.Invariants.batch_ended inv ~sid:1;
  check "no extra" 1 (Obs.Invariants.total_violations inv)

let test_inv3_fires () =
  let inv = exact () in
  (* Collect 3 ops when only 1 was ever submitted: the pending balance
     would go negative — an op was fabricated or collected twice. *)
  Obs.Invariants.op_submitted inv ~sid:0;
  Obs.Invariants.batch_started inv ~sid:0 ~size:3 ~cap:4;
  check "inv3 fired" 1 (viol inv Obs.Invariants.Inv3);
  Obs.Invariants.batch_ended inv ~sid:0;
  (* The balance carries the deficit (now -2); once enough genuine
     submissions restore it, collection is clean again. *)
  for _ = 1 to 5 do
    Obs.Invariants.op_submitted inv ~sid:0
  done;
  Obs.Invariants.batch_started inv ~sid:0 ~size:3 ~cap:4;
  Obs.Invariants.batch_ended inv ~sid:0;
  check "no new fire once balanced" 1 (viol inv Obs.Invariants.Inv3)

let test_lemma2_fires () =
  let inv = exact ~lemma2_bound:2 () in
  Obs.Invariants.op_completed inv ~batches_seen:2;
  check "at bound: clean" 0 (viol inv Obs.Invariants.Lemma2);
  Obs.Invariants.op_completed inv ~batches_seen:3;
  check "over bound: fired" 1 (viol inv Obs.Invariants.Lemma2)

let test_stall_counter_fires () =
  let hl = Obs.Health.create ~workers:1 ~structures:2 () in
  Obs.Health.op_issued hl ~sid:1 ~now:(Obs.Clock.now_ns ());
  (* Well within the threshold: no episode. *)
  Obs.Health.check_stalls ~now:(Obs.Clock.now_ns ()) hl;
  check "no premature stall" 0 (Obs.Health.stall_count hl);
  (* Far past it: one episode. *)
  let later = Obs.Clock.now_ns () + (10 * Obs.Health.stall_ns) in
  Obs.Health.check_stalls ~now:later hl;
  check "stall episode" 1 (Obs.Health.stall_count hl);
  (* The episode is open: re-checking does not double-count. *)
  Obs.Health.check_stalls ~now:(later + 1_000_000) hl;
  check "episode not re-counted" 1 (Obs.Health.stall_count hl);
  (* A launch closes the episode; a fresh freeze opens a new one. *)
  Obs.Health.batch_collected hl ~sid:1 ~size:0 ~now:(later + 2_000_000);
  Obs.Health.op_issued hl ~sid:1 ~now:(later + 2_000_000);
  Obs.Health.check_stalls ~now:(later + (20 * Obs.Health.stall_ns)) hl;
  check "new episode after launch" 2 (Obs.Health.stall_count hl)

(* The stream's own stall detection: each snapshot sample scans for
   stalled structures before it writes its line, so a structure pending
   for two thresholds with no launch shows on the very next line. *)
let test_snapshot_flags_stall () =
  let hl = Obs.Health.create ~workers:1 ~structures:1 () in
  Obs.Health.op_issued hl ~sid:0
    ~now:(Obs.Clock.now_ns () - (2 * Obs.Health.stall_ns));
  let path = Filename.temp_file "health" ".jsonl" in
  let snap =
    Obs.Snapshot.to_file ~health:hl ~invariants:Obs.Invariants.null ~path ()
  in
  Obs.Snapshot.sample snap;
  Obs.Snapshot.close snap;
  let line = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let health =
    match Obs.Json.parse (String.trim line) with
    | Ok j -> (
        match Obs.Json.member "health" j with
        | Some h -> h
        | None -> Alcotest.fail "no health field")
    | Error e -> Alcotest.failf "snapshot line does not parse: %s" e
  in
  (match Obs.Json.member "stalls" health with
  | Some (Obs.Json.Int 1) -> ()
  | _ -> Alcotest.fail "stalls not 1");
  match Obs.Json.member "structures" health with
  | Some (Obs.Json.List [ s0 ]) ->
      check_bool "stalled" true
        (Obs.Json.member "stalled" s0 = Some (Obs.Json.Bool true))
  | _ -> Alcotest.fail "structures shape"

(* ---- checker mechanics ---- *)

let test_off_and_out_of_range () =
  let off = Obs.Invariants.null in
  check_bool "off is inactive" false (Obs.Invariants.active off);
  Obs.Invariants.batch_started off ~sid:0 ~size:99 ~cap:1;
  check "off never fires" 0 (Obs.Invariants.total_violations off);
  let inv = exact ~structures:1 () in
  (* Hooks with sids outside [0..structures-1] are ignored, not trusted. *)
  Obs.Invariants.op_submitted inv ~sid:7;
  Obs.Invariants.batch_started inv ~sid:7 ~size:99 ~cap:1;
  Obs.Invariants.batch_started inv ~sid:(-1) ~size:99 ~cap:1;
  check "out-of-range ignored" 0 (Obs.Invariants.total_violations inv)

let test_one_launch_fires_two_checks () =
  let inv = exact () in
  Obs.Invariants.batch_started inv ~sid:0 ~size:9 ~cap:4;
  (* Inv2 (size > cap) and Inv3 (collected 9, submitted 0) both fire
     at one check site, each on its own counter. *)
  check "inv2" 1 (viol inv Obs.Invariants.Inv2);
  check "inv3" 1 (viol inv Obs.Invariants.Inv3);
  check "nothing else" 2 (Obs.Invariants.total_violations inv);
  check "one check site" 1 (Obs.Invariants.checks_run inv);
  match Obs.Json.member "violations" (Obs.Invariants.to_json inv) with
  | Some v ->
      List.iter
        (fun (name, n) ->
          check name n
            (match Obs.Json.member name v with
            | Some (Obs.Json.Int k) -> k
            | _ -> Alcotest.failf "no %s" name))
        [ ("inv1", 0); ("inv2", 1); ("inv3", 1); ("lemma2", 0) ]
  | None -> Alcotest.fail "no violations object"

(* ---- health gauges ---- *)

let test_op_counts () =
  let hl = Obs.Health.create ~workers:2 ~structures:2 () in
  Obs.Health.op_done hl ~sid:0;
  Obs.Health.op_done hl ~sid:0;
  Obs.Health.op_done hl ~sid:1;
  (* Out-of-range sids are ignored. *)
  Obs.Health.op_done hl ~sid:2;
  Obs.Health.op_done hl ~sid:(-1);
  check "sid 0" 2 (ops hl ~sid:0);
  check "sid 1" 1 (ops hl ~sid:1);
  Obs.Health.op_done Obs.Health.null ~sid:0;
  check "null counts nothing" 0 (ops Obs.Health.null ~sid:0)

let test_heartbeat_age () =
  let hl = Obs.Health.create ~workers:2 ~structures:1 () in
  let now = Obs.Clock.now_ns () in
  check "never-beaten is -1" (-1)
    (Obs.Health.heartbeat_age_ns hl ~worker:1 ~now);
  Obs.Health.beat hl ~worker:0;
  let age =
    Obs.Health.heartbeat_age_ns hl ~worker:0 ~now:(Obs.Clock.now_ns ())
  in
  check_bool "age is small and non-negative" true
    (age >= 0 && age < 1_000_000_000)

let test_health_json_shape () =
  let hl = Obs.Health.create ~workers:1 ~structures:1 () in
  Obs.Health.beat hl ~worker:0;
  Obs.Health.op_issued hl ~sid:0 ~now:(Obs.Clock.now_ns ());
  Obs.Health.batch_collected hl ~sid:0 ~size:1 ~now:(Obs.Clock.now_ns ());
  Obs.Health.op_done hl ~sid:0;
  let j = Obs.Health.to_json hl in
  (* Must be valid JSON carrying the fields the monitor digests. (No
     structural round-trip check: the strict parser reads integral
     floats like a 0.0 mean back as ints, which is fine for readers.) *)
  let s = Obs.Json.to_string j in
  (match Obs.Json.parse s with
  | Error e -> Alcotest.failf "health json does not parse: %s" e
  | Ok _ -> ());
  let member k =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" k
  in
  (match member "stalls" with
  | Obs.Json.Int 0 -> ()
  | _ -> Alcotest.fail "stalls not 0");
  (match member "structures" with
  | Obs.Json.List [ s0 ] -> (
      check_bool "no per-op time" true (Obs.Json.member "phases" s0 = None);
      match Obs.Json.member "ops" s0 with
      | Some (Obs.Json.Int 1) -> ()
      | _ -> Alcotest.fail "ops gauge wrong")
  | _ -> Alcotest.fail "structures shape");
  check_bool "null health is Null" true
    (Obs.Health.to_json Obs.Health.null = Obs.Json.Null)

(* ---- the quiet path allocates nothing ---- *)

(* One probe lifecycle cycle (submit -> launch -> finish -> complete)
   per iteration, stamped as the runtime stamps it, plus a heartbeat
   and a sampler-side stall check. *)
let probe_cycles probe ~n =
  for _ = 1 to n do
    Obs.Probe.beat probe ~worker:0;
    let issue = Obs.Probe.now probe in
    Obs.Probe.submit probe ~time:issue ~worker:0 ~sid:0 ~token:0;
    let launch = Obs.Probe.now probe in
    Obs.Probe.launch probe ~time:launch ~worker:0 ~sid:0 ~size:1 ~setup:0
      ~cap:2;
    let finish = Obs.Probe.now probe in
    Obs.Probe.finish probe ~time:finish ~worker:0 ~sid:0 ~size:1;
    Obs.Probe.complete probe ~time:(Obs.Probe.now probe) ~worker:0 ~sid:0
      ~token:0 ~issue ~launch ~finish ~seen:1 ~batch_worker:0;
    (* No [~now]: passing it would box a [Some] at every call site — the
       sampler's own call reads the clock instead. *)
    Obs.Health.check_stalls (Obs.Probe.health probe)
  done

let test_quiet_path_no_alloc () =
  let rc =
    Obs.Recorder.create ~capacity:64 ~clock:Obs.Recorder.Nanoseconds ~workers:2
      ()
  in
  let inv = exact ~lemma2_bound:1024 ~structures:2 () in
  let hl = Obs.Health.create ~workers:2 ~structures:2 () in
  let rt = Obs.Reqtrace.create ~classes:1 ~capacity:1 () in
  let probe =
    Obs.Probe.create ~recorder:rc ~invariants:inv ~health:hl ~reqtrace:rt ()
  in
  (* Warm up one-time paths. *)
  probe_cycles probe ~n:1;
  let words_before = Gc.minor_words () in
  probe_cycles probe ~n:10_000;
  let delta = Gc.minor_words () -. words_before in
  (* Gc.minor_words boxes a float per call; allow that slack but nothing
     proportional to the 50k hook calls. *)
  if delta > 256. then
    Alcotest.failf "quiet monitoring path allocated %.0f minor words" delta;
  check "and stayed quiet" 0 (Obs.Invariants.total_violations inv);
  check "every cycle reached health" 10_001 (ops hl ~sid:0);
  (* The same cycle with nothing attached. *)
  let words_before = Gc.minor_words () in
  probe_cycles Obs.Probe.null ~n:10_000;
  let delta = Gc.minor_words () -. words_before in
  if delta > 256. then
    Alcotest.failf "null probe allocated %.0f minor words" delta

(* ---- end to end on the real runtime ---- *)

let test_runtime_integration_clean () =
  (* A healthy run under the invariant checkers: every hook fires through
     Pool/Batcher_rt wiring and nothing trips, Lemma 2 at the paper's
     default bound of 2 included. A recorder rides on the same probe,
     and each subscriber sees each op exactly once. *)
  let n_ops = 256 in
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:2 () in
  let inv = Obs.Invariants.create ~structures:2 () in
  let hl = Obs.Health.create ~workers:2 ~structures:2 () in
  let pool =
    Runtime.Pool.create
      ~probe:(Obs.Probe.create ~recorder:rc ~invariants:inv ~health:hl ())
      ~num_workers:2 ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~sid:0 ~pool ~state:counter
          ~run_batch:(fun _ st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n_ops (fun _ ->
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
      check "counter saw all ops" n_ops (Batched.Counter.value counter);
      check "no violations" 0 (Obs.Invariants.total_violations inv);
      check "no stalls" 0 (Obs.Health.stall_count hl);
      check "pending balance drained" 0 (Obs.Invariants.pending inv ~sid:0);
      check_bool "checkers ran" true (Obs.Invariants.checks_run inv > 0);
      check "health counted every op" n_ops (ops hl ~sid:0);
      (* Heartbeats flowed on the workers that participated. *)
      let now = Obs.Clock.now_ns () in
      check_bool "worker 0 beat" true
        (Obs.Health.heartbeat_age_ns hl ~worker:0 ~now >= 0));
  (* The rings are read once every worker has stopped writing them. *)
  let s = Obs.Summary.of_recorder rc in
  check "recorded op-dones" n_ops
    (Obs.Summary.Histo.count s.Obs.Summary.op_latency);
  check "recorded batch sizes sum to ops" n_ops
    (Obs.Summary.Histo.total s.Obs.Summary.batch_size)

let () =
  Alcotest.run "health"
    [
      ( "invariants",
        [
          Alcotest.test_case "Inv1 double launch fires" `Quick test_inv1_fires;
          Alcotest.test_case "Inv2 oversized batch fires" `Quick
            test_inv2_fires;
          Alcotest.test_case "Inv3 fabricated collection fires" `Quick
            test_inv3_fires;
          Alcotest.test_case "Lemma-2 bound fires" `Quick test_lemma2_fires;
          Alcotest.test_case "off and out-of-range" `Quick
            test_off_and_out_of_range;
          Alcotest.test_case "one launch fires two checks" `Quick
            test_one_launch_fires_two_checks;
        ] );
      ( "health",
        [
          Alcotest.test_case "stall watchdog fires and re-arms" `Quick
            test_stall_counter_fires;
          Alcotest.test_case "snapshot sample flags a stall" `Quick
            test_snapshot_flags_stall;
          Alcotest.test_case "op counts per structure" `Quick test_op_counts;
          Alcotest.test_case "heartbeat ages" `Quick test_heartbeat_age;
          Alcotest.test_case "health json shape" `Quick test_health_json_shape;
          Alcotest.test_case "quiet path allocation-free" `Quick
            test_quiet_path_no_alloc;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "clean run under exact checking" `Quick
            test_runtime_integration_clean;
        ] );
    ]
