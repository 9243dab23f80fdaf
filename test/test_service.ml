(* Tests for the service workload subsystem: statistical sanity of the
   generator (Zipf skew, Poisson/burst arrival rates), byte-identical
   replay from a fixed seed, the open-loop virtual-clock engine, and
   the driver/report plumbing. The generator's RNG is the repo's own
   deterministic Xoshiro, so the statistical assertions are exact
   reruns — tolerances guard against algorithmic drift, not against
   sampling luck. *)

module Gen = Svc.Gen

let fi = float_of_int

(* ---------- Zipf sampler ---------- *)

(* Rank-frequency must be monotone (up to noise): bucket the ranks
   logarithmically and require each bucket's *per-rank* mass to exceed
   the next bucket's. 200k draws over 1000 ranks at theta = 0.99 puts
   thousands of samples in every bucket, so a violation means the
   sampler is wrong, not unlucky. *)
let test_zipf_rank_frequency_monotone () =
  let n = 1000 and draws = 200_000 in
  let z = Gen.zipf ~n ~theta:0.99 in
  let rng = Util.Rng.create ~seed:7 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Gen.zipf_sample rng z in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  let bucket lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + counts.(i)
    done;
    fi !s /. fi (hi - lo)
  in
  let buckets =
    [ bucket 0 1; bucket 1 10; bucket 10 100; bucket 100 1000 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "per-rank mass decreasing (%.1f > %.1f)" a b)
          true (a > b);
        monotone rest
    | _ -> ()
  in
  monotone buckets;
  (* The head must dominate: rank 0 carries orders of magnitude more
     than a mid-tail rank at theta ~ 1. *)
  Alcotest.(check bool) "rank 0 dominates rank 500" true
    (counts.(0) > 20 * max 1 counts.(500))

(* theta = 0 must degenerate to uniform: every rank within 25% of the
   uniform expectation (80k draws over 100 ranks = 800 expected per
   rank, sd ~ 28, so 25% = 7 sd). *)
let test_zipf_theta0_uniform () =
  let n = 100 and draws = 80_000 in
  let z = Gen.zipf ~n ~theta:0.0 in
  let rng = Util.Rng.create ~seed:11 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Gen.zipf_sample rng z in
    counts.(r) <- counts.(r) + 1
  done;
  let expect = fi draws /. fi n in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d count %d ~ uniform %.0f" i c expect)
        true
        (fi c > 0.75 *. expect && fi c < 1.25 *. expect))
    counts

(* The theta ~ 1 harmonic special case must not crash or leave the
   range (it switches H to ln x internally). *)
let test_zipf_theta_one () =
  let z = Gen.zipf ~n:5000 ~theta:1.0 in
  let rng = Util.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let r = Gen.zipf_sample rng z in
    Alcotest.(check bool) "in range at theta=1" true (r >= 0 && r < 5000)
  done

(* scramble is a bijection on [0, n): mapping every rank must hit
   every key exactly once — for n both a power of two and odd. *)
let test_scramble_bijection () =
  List.iter
    (fun n ->
      let seen = Array.make n false in
      for r = 0 to n - 1 do
        let k = Gen.scramble ~n_keys:n r in
        Alcotest.(check bool) "key in range" true (k >= 0 && k < n);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d key %d hit once" n k)
          false seen.(k);
        seen.(k) <- true
      done)
    [ 16_384; 99_991; 1000 ]

(* ---------- arrival process ---------- *)

(* Plain Poisson: the realized count over a long horizon must sit
   within 3% of rate x duration (sd/mean ~ 0.3% here). *)
let test_poisson_mean_rate () =
  let g = Gen.make ~theta:0.5 ~seed:123 ~n_keys:1000 ~rate:50_000.0 () in
  let reqs = Gen.generate g ~duration_s:2.0 in
  let n = fi (Gen.length reqs) in
  let expect = 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "poisson count %.0f ~ %.0f" n expect)
    true
    (n > 0.97 *. expect && n < 1.03 *. expect);
  (* arrival order, in-horizon stamps *)
  let arrive = reqs.Gen.arrive_ns in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) "stamp in horizon" true
        (t >= 0 && t < 2_000_000_000);
      if i > 0 then
        Alcotest.(check bool) "arrival order" true (arrive.(i - 1) <= t))
    arrive

(* On/off bursts: over a horizon covering many episodes, the realized
   rate must approach expected_rate (within 15% — ~100 exponential
   episodes of variance). *)
let test_burst_mean_rate () =
  let burst = Some { Gen.on_s = 0.05; off_s = 0.15; mult = 3.0 } in
  let g = Gen.make ~theta:0.5 ~burst ~seed:17 ~n_keys:1000 ~rate:20_000.0 () in
  let dur = 20.0 in
  let expect = Gen.expected_rate g *. dur in
  Alcotest.(check (float 0.001)) "expected_rate formula" 30_000.0
    (Gen.expected_rate g);
  let n = fi (Gen.length (Gen.generate g ~duration_s:dur)) in
  Alcotest.(check bool)
    (Printf.sprintf "burst count %.0f ~ %.0f" n expect)
    true
    (n > 0.85 *. expect && n < 1.15 *. expect)

(* ---------- replay determinism ---------- *)

let test_replay_identical () =
  let mk seed =
    Gen.make ~theta:0.99
      ~burst:(Some { Gen.on_s = 0.1; off_s = 0.3; mult = 4.0 })
      ~locality:0.2 ~recent_window:64 ~seed ~n_keys:100_000 ~rate:30_000.0 ()
  in
  let g = mk 42 in
  let a = Gen.generate_n g ~n:5_000 in
  let b = Gen.generate_n g ~n:5_000 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Gen.generate g ~duration_s:0.05 in
  let d = Gen.generate g ~duration_s:0.05 in
  Alcotest.(check bool) "generate replays too" true (c = d);
  (* generate and generate_n walk one stream: the horizon run is a
     prefix of the counted run *)
  let e = Gen.generate_n g ~n:(Gen.length c) in
  Alcotest.(check bool) "same stream prefix" true (c = e);
  let other = Gen.generate_n (mk 43) ~n:5_000 in
  Alcotest.(check bool) "different seed differs" true (a <> other)

(* Every field of the first 5,000 requests of four generators, through
   both entry points: arrival, class index, key and key2 mixed into one
   hash, recorded when each request was still a record. [generate]
   runs to a horizon of twice the time 5,000 requests take at the
   expected rate; its count is pinned beside the hash of its first
   5,000. *)
let stream_pins =
  [
    ("standard sim", Svc.Scenario.gen_sim, "standard",
      (884660094812703717, 6293));
    ("standard rt", Svc.Scenario.gen_rt, "standard",
      (2370175607735373735, 6293));
    ("hashtable-hot sim", Svc.Scenario.gen_sim, "hashtable-hot",
      (4105717687788922250, 6355));
    ("smoke rt", Svc.Scenario.gen_rt, "smoke",
      (819246155050132037, 10292));
  ]

let stream_hash n field =
  let h = ref 17 in
  for i = 0 to n - 1 do
    for f = 0 to 3 do
      h := ((!h * 1000003) lxor field i f) land 0x3FFFFFFFFFFFFFFF
    done
  done;
  !h

let request_field (reqs : Gen.requests) i = function
  | 0 -> reqs.Gen.arrive_ns.(i)
  | 1 -> reqs.Gen.cls.(i)
  | 2 -> reqs.Gen.key.(i)
  | _ -> reqs.Gen.key2.(i)

let test_stream_pins () =
  let n = 5_000 in
  List.iter
    (fun (label, gen, name, (hash, count)) ->
      let sc =
        match Svc.Scenario.find name with
        | Some sc -> sc
        | None -> Alcotest.failf "%s scenario missing" name
      in
      let g = gen sc in
      let a = Gen.generate_n g ~n in
      Alcotest.(check int) (label ^ ": generate_n") hash
        (stream_hash n (request_field a));
      let b =
        Gen.generate g ~duration_s:(2.0 *. fi n /. Gen.expected_rate g)
      in
      Alcotest.(check int) (label ^ ": generate count") count (Gen.length b);
      Alcotest.(check int) (label ^ ": generate") hash
        (stream_hash n (request_field b)))
    stream_pins

let test_locality_replays_recent () =
  (* With locality = 1 every draw past the first replays the ring, so a
     tiny window forces repeats. *)
  let g =
    Gen.make ~theta:0.5 ~locality:1.0 ~recent_window:4 ~seed:5
      ~n_keys:1_000_000 ~rate:10_000.0 ()
  in
  let reqs = Gen.generate_n g ~n:200 in
  let distinct = Hashtbl.create 16 in
  Array.iter (fun k -> Hashtbl.replace distinct k ()) reqs.Gen.key;
  Alcotest.(check bool)
    (Printf.sprintf "only %d distinct keys" (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct <= 8)

(* ---------- open-loop virtual-clock engine ---------- *)

(* The engine's two inputs for a generated stream: arrivals in cost
   units of [unit_ns] and each request's shard, routed by its key. *)
let engine_inputs (reqs : Gen.requests) ~unit_ns ~shards =
  ( Array.map (fun t -> t / unit_ns) reqs.Gen.arrive_ns,
    Array.map (Batched.Shard.route ~shards) reqs.Gen.key )

let openloop_fixture () =
  let g = Gen.make ~theta:0.9 ~seed:9 ~n_keys:10_000 ~rate:40_000.0 () in
  let shards = 2 in
  let at, shard =
    engine_inputs (Gen.generate_n g ~n:400) ~unit_ns:1000 ~shards
  in
  let models =
    Array.init shards (fun _ ->
        Batched.Skiplist.sim_model ~initial_size:4096 ())
  in
  (at, shard, models)

let test_openloop_deterministic () =
  let at, shard, models = openloop_fixture () in
  let cfg = Sim.Openloop.config ~p:4 ~shards:2 () in
  let r1 = Sim.Openloop.run cfg ~models ~at ~shard in
  let r2 = Sim.Openloop.run cfg ~models ~at ~shard in
  Alcotest.(check bool) "waits identical" true
    (r1.Sim.Openloop.waits = r2.Sim.Openloop.waits);
  Alcotest.(check int) "makespan identical" r1.Sim.Openloop.makespan
    r2.Sim.Openloop.makespan;
  Alcotest.(check int) "batches identical" r1.Sim.Openloop.batches
    r2.Sim.Openloop.batches

let test_openloop_sanity () =
  let at, shard, models = openloop_fixture () in
  let cfg = Sim.Openloop.config ~p:4 ~shards:2 () in
  let r = Sim.Openloop.run cfg ~models ~at ~shard in
  let n = Array.length at in
  Alcotest.(check int) "every request served" n
    (Array.length r.Sim.Openloop.waits);
  Array.iter
    (fun w -> Alcotest.(check bool) "wait positive" true (w > 0))
    r.Sim.Openloop.waits;
  Alcotest.(check int) "per-shard ops conserve" n
    (Array.fold_left ( + ) 0 r.Sim.Openloop.per_shard_ops);
  Alcotest.(check bool) "cap respected" true
    (r.Sim.Openloop.max_batch <= cfg.Sim.Openloop.batch_cap);
  Alcotest.(check bool) "makespan past last arrival" true
    (r.Sim.Openloop.makespan
    >= Array.fold_left max 0 at);
  (* The wait tail must stay within the composed Theorem-1 budget. *)
  let wait_max = Array.fold_left max 0 r.Sim.Openloop.waits in
  (match
     Check.Bound.service_check ~p:4 ~wait_max
       ~total_work:r.Sim.Openloop.total_work
       ~per_shard_ops:r.Sim.Openloop.per_shard_ops
       ~per_shard_span:r.Sim.Openloop.per_shard_span_max
       ~m:r.Sim.Openloop.max_batches_seen ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* More workers never slow the virtual clock down. *)
  let r64 =
    Sim.Openloop.run (Sim.Openloop.config ~p:64 ~shards:2 ()) ~models ~at
      ~shard
  in
  Alcotest.(check bool) "P=64 makespan <= P=4" true
    (r64.Sim.Openloop.makespan <= r.Sim.Openloop.makespan)

(* An idle system (arrivals far apart) must show the paper's Lemma-2
   figure: at most own batch + one in flight. *)
let test_openloop_lemma2_when_underloaded () =
  let at = Array.init 50 (fun i -> i * 100_000) and shard = Array.make 50 0 in
  let models = [| Batched.Counter.sim_model () |] in
  let r =
    Sim.Openloop.run (Sim.Openloop.config ~p:4 ~shards:1 ()) ~models ~at ~shard
  in
  Alcotest.(check bool)
    (Printf.sprintf "m = %d <= 2" r.Sim.Openloop.max_batches_seen)
    true
    (r.Sim.Openloop.max_batches_seen <= 2)

(* The engine admits in arrival order, same-instant requests in input
   order: a shuffled request array takes the stable-sort path, and must
   give every request the figures it gets when the same requests come
   already in that order (the path with no sort). *)
let test_openloop_unsorted_input () =
  let at, shard, models = openloop_fixture () in
  let n = Array.length at in
  let perm = Array.init n Fun.id in
  Util.Rng.shuffle (Util.Rng.create ~seed:5) perm;
  let shuffled_at = Array.map (fun k -> at.(k)) perm
  and shuffled_shard = Array.map (fun k -> shard.(k)) perm in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j -> Int.compare shuffled_at.(i) shuffled_at.(j))
    order;
  let pick a = Array.map (fun k -> a.(k)) order in
  let cfg = Sim.Openloop.config ~p:4 ~shards:2 () in
  let r1 =
    Sim.Openloop.run cfg ~models ~at:shuffled_at ~shard:shuffled_shard
  in
  let r2 =
    Sim.Openloop.run cfg ~models ~at:(pick shuffled_at)
      ~shard:(pick shuffled_shard)
  in
  let open Sim.Openloop in
  Alcotest.(check int) "makespan" r2.makespan r1.makespan;
  Alcotest.(check int) "batches" r2.batches r1.batches;
  Array.iteri
    (fun j k ->
      Alcotest.(check int) "wait" r2.waits.(j) r1.waits.(k);
      Alcotest.(check int) "launch wait" r2.launch_waits.(j) r1.launch_waits.(k);
      Alcotest.(check int) "batches seen" r2.batches_seen.(j) r1.batches_seen.(k))
    order

(* The arrivals and the shards are two columns of one request array:
   columns of different lengths are refused before any model is
   touched. *)
let test_openloop_length_mismatch () =
  let cfg = Sim.Openloop.config ~p:4 ~shards:1 () in
  let models = [| Batched.Counter.sim_model () |] in
  Alcotest.check_raises "one shard per arrival"
    (Invalid_argument "Openloop.run: one shard per arrival") (fun () ->
      ignore
        (Sim.Openloop.run cfg ~models ~at:[| 0; 1; 2 |] ~shard:[| 0; 0 |]))

(* ---------- sim driver end-to-end ---------- *)

let smoke () =
  match Svc.Scenario.find "smoke" with
  | Some sc -> sc
  | None -> Alcotest.fail "smoke scenario missing"

let test_sim_driver_smoke () =
  let sc = smoke () in
  let pt = Svc.Sim_driver.run_point sc ~p:4 in
  Alcotest.(check int) "all requests" sc.Svc.Scenario.sim_requests
    pt.Svc.Sim_driver.requests;
  (match pt.Svc.Sim_driver.bound with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let all = Svc.Latency.all_of pt.Svc.Sim_driver.classes in
  Alcotest.(check bool) "p50 <= p99" true
    (all.Svc.Latency.p50_ns <= all.Svc.Latency.p99_ns);
  Alcotest.(check bool) "p99 <= p999" true
    (all.Svc.Latency.p99_ns <= all.Svc.Latency.p999_ns);
  Alcotest.(check bool) "p999 <= max" true
    (all.Svc.Latency.p999_ns <= all.Svc.Latency.max_ns);
  Alcotest.(check bool) "non-degenerate tail" true
    (all.Svc.Latency.p50_ns < all.Svc.Latency.p999_ns);
  Alcotest.(check bool) "goodput positive" true
    (pt.Svc.Sim_driver.goodput > 0.0);
  (* Determinism across driver invocations. *)
  let pt2 = Svc.Sim_driver.run_point sc ~p:4 in
  Alcotest.(check (float 0.0)) "deterministic p999"
    all.Svc.Latency.p999_ns
    (Svc.Latency.all_of pt2.Svc.Sim_driver.classes).Svc.Latency.p999_ns

(* Minor words per request of one sim point: standard, P = 8, 20k
   requests. Measured at 6.3 (15.3 when each request was a record in
   Gen and a second one in Openloop and the digest merge-sorted floats,
   31.1 when the skip-list model built a tree for every batch and
   Openloop walked each one, 280 when the digest sorted through
   Array.sort and the engine allocated per event); the pin allows 1.7
   more, which one boxed float per request would overrun. Every figure
   is deterministic, so the count repeats exactly. *)
let test_sim_driver_words () =
  let sc =
    match Svc.Scenario.find "standard" with
    | Some sc -> { sc with Svc.Scenario.sim_requests = 20_000; sim_p = [ 8 ] }
    | None -> Alcotest.fail "standard scenario missing"
  in
  ignore (Svc.Sim_driver.run_point sc ~p:8);
  let before = Gc.minor_words () in
  let pt = Svc.Sim_driver.run_point sc ~p:8 in
  let words = Gc.minor_words () -. before in
  let per_req = words /. fi pt.Svc.Sim_driver.requests in
  if per_req > 8.0 then
    Alcotest.failf "Sim_driver.run_point: %.1f minor words per request (pin 8)"
      per_req

(* Minor words per request of Gen.generate_n over 100k requests.
   Measured at 0.0006 (5.0 when each request was a four-field record):
   the four columns are past the minor heap's size limit and no draw
   allocates, so a tenth of a word per request is already a leak. *)
let test_gen_words () =
  let n = 100_000 in
  let g =
    match Svc.Scenario.find "standard" with
    | Some sc -> Svc.Scenario.gen_sim sc
    | None -> Alcotest.fail "standard scenario missing"
  in
  let before = Gc.minor_words () in
  let reqs = Gen.generate_n g ~n in
  let per_req = (Gc.minor_words () -. before) /. fi n in
  Alcotest.(check int) "every request generated" n (Gen.length reqs);
  if per_req > 0.1 then
    Alcotest.failf "Gen.generate_n: %.3f minor words per request (pin 0.1)"
      per_req

(* Minor words per sample of one digest over 20k samples in four
   classes. Measured at 0.03 (0.01 for the float merge sort, 183
   through Array.sort): the arrays are past the minor heap's size
   limit, so only per-sample boxing counts here, and one boxed float per
   sample is two words; the pin is one. *)
let test_latency_words () =
  let n = 20_000 in
  let rng = Util.Rng.create ~seed:3 in
  let ns = Array.init n (fun _ -> Util.Rng.int rng 1_000_000) in
  let cls = Array.init n (fun _ -> Util.Rng.int rng Gen.n_classes) in
  let before = Gc.minor_words () in
  let classes = Svc.Latency.of_samples ~cls ns in
  let per_sample = (Gc.minor_words () -. before) /. fi n in
  Alcotest.(check int) "every sample digested" n
    (Svc.Latency.all_of classes).Svc.Latency.requests;
  if per_sample > 1.0 then
    Alcotest.failf "Latency.of_samples: %.2f minor words per sample (pin 1)"
      per_sample

(* ---------- runtime driver, tiny ---------- *)

let test_rt_driver_tiny () =
  let sc = smoke () in
  let pt = Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.3 sc ~shards:1 in
  Alcotest.(check bool) "served some requests" true
    (pt.Svc.Rt_driver.requests > 100);
  Alcotest.(check bool) "goodput positive" true (pt.Svc.Rt_driver.goodput > 0.0);
  Alcotest.(check bool) "batches ran" true (pt.Svc.Rt_driver.batches > 0);
  let all = Svc.Latency.all_of pt.Svc.Rt_driver.classes in
  Alcotest.(check int) "every request measured" pt.Svc.Rt_driver.requests
    all.Svc.Latency.requests;
  Alcotest.(check bool) "latencies positive" true (all.Svc.Latency.p50_ns > 0.0);
  Alcotest.(check bool) "ordered digests" true
    (all.Svc.Latency.p50_ns <= all.Svc.Latency.p99_ns
    && all.Svc.Latency.p99_ns <= all.Svc.Latency.p999_ns
    && all.Svc.Latency.p999_ns <= all.Svc.Latency.max_ns);
  (* Dispatcher lateness: one sample per request, never negative (a
     request is released only once its scheduled time has passed), and
     part of that request's latency, so the worst lag cannot exceed the
     worst latency. *)
  let lag = pt.Svc.Rt_driver.lag_ns in
  Alcotest.(check int) "one lag per request" pt.Svc.Rt_driver.requests
    (Array.length lag);
  Alcotest.(check bool) "lags non-negative" true
    (Array.for_all (fun l -> l >= 0) lag);
  let d = Svc.Latency.digest "lag" lag in
  Alcotest.(check int) "lag digest counts every request"
    pt.Svc.Rt_driver.requests d.Svc.Latency.requests;
  Alcotest.(check bool) "worst lag within worst latency" true
    (d.Svc.Latency.max_ns <= all.Svc.Latency.max_ns)

(* The live stream, as @service-smoke reads it: [~snapshot_path]
   attaches the online checkers and streams them with Health. No line
   carries recorder fields, the checkers ran and found nothing, and
   every worker, the dispatcher's included, beat within [stall_ns] on
   every line. *)
let test_rt_driver_stream () =
  let sc = smoke () in
  let path = Filename.temp_file "svc_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.3 ~snapshot_path:path
           sc ~shards:1);
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Obs.Json.parse l with
               | Ok j -> j
               | Error e -> Alcotest.failf "unparseable line %S: %s" l e)
      in
      Alcotest.(check bool) "a first and a last line" true (List.length lines >= 2);
      let rec field keys j =
        match keys with
        | [] -> j
        | k :: rest -> (
            match Obs.Json.member k j with
            | Some j' -> field rest j'
            | None -> Alcotest.failf "line missing %s" k)
      in
      let int keys j =
        match field keys j with
        | Obs.Json.Int i -> i
        | _ -> Alcotest.failf "%s is not an int" (String.concat "." keys)
      in
      List.iter
        (fun j ->
          List.iter
            (fun k ->
              if Obs.Json.member k j <> None then
                Alcotest.failf "line %d carries %s" (int [ "seq" ] j) k)
            [ "dropped"; "totals"; "deltas" ];
          let stall_ns = int [ "health"; "stall_ns" ] j in
          match field [ "health"; "workers" ] j with
          | Obs.Json.List ws ->
              Alcotest.(check int) "both workers" 2 (List.length ws);
              List.iter
                (fun w ->
                  let age = int [ "beat_age_ns" ] w in
                  if age >= stall_ns then
                    Alcotest.failf "line %d: worker %d beat %d ns ago"
                      (int [ "seq" ] j) (int [ "w" ] w) age)
                ws
          | _ -> Alcotest.fail "health.workers is not a list")
        lines;
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check bool) "the checkers ran" true
        (int [ "invariants"; "checks" ] last > 0);
      List.iter
        (fun c ->
          Alcotest.(check int) ("no " ^ c) 0
            (int [ "invariants"; "violations"; c ] last))
        [ "inv1"; "inv2"; "inv3"; "lemma2" ])

(* The sweep's offered rate is the generated schedule's, bursts included:
   smoke's 3x bursts offer ~1.5x its base rate, so a rate taken from the
   base made goodput read ~150% of offered. Goodput cannot beat the
   schedule it drains. *)
let test_sweep_offered_counts_bursts () =
  let sc = smoke () in
  Alcotest.(check bool) "bursty scenario" true (sc.Svc.Scenario.burst <> None);
  let sw = Svc.Sweep.run ~mults:[ 1.0 ] ~workers:2 ~duration_s:0.3 sc in
  List.iter
    (fun (p : Svc.Sweep.point) ->
      let ratio = p.Svc.Sweep.pt.Svc.Rt_driver.goodput /. p.Svc.Sweep.offered_req_s in
      if ratio > 1.05 then
        Alcotest.failf "goodput %.0f req/s is %.0f%% of offered %.0f req/s"
          p.Svc.Sweep.pt.Svc.Rt_driver.goodput (100.0 *. ratio)
          p.Svc.Sweep.offered_req_s)
    sw.Svc.Sweep.points

(* Knee extraction over synthetic points, one grid per status: every
   multiplier keeps up (the knee is the grid's top, a lower bound), the
   top one falls short (the knee is inside the grid), none keeps up. *)
let test_sweep_knee_status () =
  let point mult kept : Svc.Sweep.point =
    let offered = 10_000.0 *. mult in
    {
      Svc.Sweep.mult;
      offered_req_s = offered;
      pt =
        {
          Svc.Rt_driver.shards = 1;
          workers = 2;
          requests = 0;
          elapsed_ns = 0.0;
          goodput = (if kept then offered else 0.5 *. offered);
          classes = [];
          batches = 0;
          max_batch = 0;
          stalls = 0;
          slo_burns = 0;
          lag_ns = [||];
          trace = Obs.Reqtrace.null;
        };
      shares = [];
    }
  in
  let knee kept =
    Svc.Sweep.knee_of_points (List.map2 point [ 1.0; 2.0; 4.0 ] kept)
  in
  let top = knee [ true; true; true ] in
  Alcotest.(check bool) "all kept up: top" true
    (top.Svc.Sweep.k_status = Svc.Sweep.Top_kept_up);
  Alcotest.(check (float 0.0)) "all kept up: knee is the top" 40_000.0
    top.Svc.Sweep.knee_req_s;
  let inside = knee [ true; true; false ] in
  Alcotest.(check bool) "top fell short: inside" true
    (inside.Svc.Sweep.k_status = Svc.Sweep.Inside_grid);
  Alcotest.(check (float 0.0)) "top fell short: knee at x2" 2.0
    inside.Svc.Sweep.knee_mult;
  let none = knee [ false; false; false ] in
  Alcotest.(check bool) "none kept up" true
    (none.Svc.Sweep.k_status = Svc.Sweep.No_point_kept_up);
  Alcotest.(check (float 0.0)) "none kept up: no rate" 0.0
    none.Svc.Sweep.knee_req_s

(* ---------- per-request span traces through the drivers ---------- *)

(* The acceptance property of the anatomy subsystem: on a real traced
   run, every completed span's phases sum exactly to its measured
   latency with every term nonnegative. *)
let test_rt_driver_trace_conservation () =
  let sc = smoke () in
  let pt =
    Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.2 ~trace:true sc ~shards:2
  in
  let rt = pt.Svc.Rt_driver.trace in
  Alcotest.(check bool) "trace enabled" true (Obs.Reqtrace.enabled rt);
  (match Obs.Reqtrace.check rt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "span conservation: %s" e);
  Alcotest.(check int)
    "every request completed a span" pt.Svc.Rt_driver.requests
    (Obs.Reqtrace.completed rt);
  (* Aggregates inherit the per-span identity. *)
  let tt = Obs.Reqtrace.totals rt in
  Alcotest.(check int) "totals cover the run" pt.Svc.Rt_driver.requests
    tt.Obs.Reqtrace.n;
  Alcotest.(check int)
    "phase totals sum to latency total" tt.Obs.Reqtrace.t_latency
    (tt.Obs.Reqtrace.t_queue + tt.Obs.Reqtrace.t_sched
    + tt.Obs.Reqtrace.t_pending + tt.Obs.Reqtrace.t_exec);
  (* The reservoir's worst latency brackets the digest's max: the trace
     stamps completion just after the driver measures the request, so
     it reads >= the digest figure, and by no more than scheduling skew
     between two adjacent stamps. *)
  let all = Svc.Latency.all_of pt.Svc.Rt_driver.classes in
  match Obs.Reqtrace.slowest rt with
  | worst :: _ ->
      let w = fi worst.Obs.Reqtrace.latency_ns in
      Alcotest.(check bool)
        (Printf.sprintf "reservoir worst %.0f ~ digest max %.0f" w
           all.Svc.Latency.max_ns)
        true
        (w >= all.Svc.Latency.max_ns
        && w <= all.Svc.Latency.max_ns +. 100_000_000.0)
  | [] -> Alcotest.fail "empty reservoir"

let test_sim_driver_trace_conservation () =
  let sc = smoke () in
  let pt = Svc.Sim_driver.run_point ~trace:true sc ~p:4 in
  let rt = pt.Svc.Sim_driver.trace in
  Alcotest.(check bool) "trace enabled" true (Obs.Reqtrace.enabled rt);
  (match Obs.Reqtrace.check rt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sim span conservation: %s" e);
  Alcotest.(check int) "every sim request has a span"
    pt.Svc.Sim_driver.requests (Obs.Reqtrace.completed rt);
  (* Virtual clock: no queue/sched phases, everything is pending+exec,
     and batches_seen stays within the open-loop engine's recorded max. *)
  let tt = Obs.Reqtrace.totals rt in
  Alcotest.(check int) "no queue phase on the virtual clock" 0
    tt.Obs.Reqtrace.t_queue;
  Alcotest.(check int) "no sched phase on the virtual clock" 0
    tt.Obs.Reqtrace.t_sched;
  Alcotest.(check int) "pending + exec = latency" tt.Obs.Reqtrace.t_latency
    (tt.Obs.Reqtrace.t_pending + tt.Obs.Reqtrace.t_exec);
  (* Determinism: the traced rerun reproduces the same totals. *)
  let pt2 = Svc.Sim_driver.run_point ~trace:true sc ~p:4 in
  let tt2 = Obs.Reqtrace.totals pt2.Svc.Sim_driver.trace in
  Alcotest.(check int) "deterministic trace totals" tt.Obs.Reqtrace.t_latency
    tt2.Obs.Reqtrace.t_latency

(* ---------- latency digests ---------- *)

let test_latency_digest () =
  let samples = Array.init 1000 (fun i -> i + 1) in
  (* Every sample a get: the put class, with none, is dropped. *)
  let classes = Svc.Latency.of_samples ~cls:(Array.make 1000 0) samples in
  Alcotest.(check int) "empty class dropped, all added" 2
    (List.length classes);
  let all = Svc.Latency.all_of classes in
  Alcotest.(check (float 0.5)) "p50 exact" 500.5 all.Svc.Latency.p50_ns;
  Alcotest.(check (float 0.5)) "p99 exact" 990.01 all.Svc.Latency.p99_ns;
  Alcotest.(check (float 0.0)) "max exact" 1000.0 all.Svc.Latency.max_ns;
  Alcotest.(check bool) "1000 samples: p999 interpolated" false
    all.Svc.Latency.p999_approx

let test_latency_p999_small_sample () =
  (* Below 1000 samples the 99.9th percentile is interpolation noise;
     the digest must report the observed max and flag it approximate. *)
  let samples = Array.init 500 (fun i -> i + 1) in
  let classes = Svc.Latency.of_samples ~cls:(Array.make 500 0) samples in
  let all = Svc.Latency.all_of classes in
  Alcotest.(check bool) "small sample flagged" true all.Svc.Latency.p999_approx;
  Alcotest.(check (float 0.0)) "p999 = max" all.Svc.Latency.max_ns
    all.Svc.Latency.p999_ns;
  let get =
    List.find (fun c -> c.Svc.Latency.cls = "get") classes
  in
  Alcotest.(check bool) "per-class flagged too" true
    get.Svc.Latency.p999_approx;
  (* At exactly 1000 the interpolated path takes over. *)
  let big = Array.init 1000 (fun i -> i + 1) in
  let all2 =
    Svc.Latency.all_of (Svc.Latency.of_samples ~cls:(Array.make 1000 0) big)
  in
  Alcotest.(check bool) "1000 samples exact" false all2.Svc.Latency.p999_approx;
  Alcotest.(check bool) "interpolated p999 below max" true
    (all2.Svc.Latency.p999_ns < all2.Svc.Latency.max_ns)

let test_latency_empty_run () =
  (* Zero samples anywhere must yield a well-formed all-zero "all"
     digest — no nan, no Not_found — so empty-run reporting works. *)
  let classes = Svc.Latency.of_samples ~cls:[||] [||] in
  Alcotest.(check int) "all digest present" 1 (List.length classes);
  let all = Svc.Latency.all_of classes in
  Alcotest.(check int) "zero requests" 0 all.Svc.Latency.requests;
  Alcotest.(check bool) "approx on empty" true all.Svc.Latency.p999_approx;
  List.iter
    (fun v ->
      Alcotest.(check bool) "finite zero" true (v = 0.0 && not (Float.is_nan v)))
    [
      all.Svc.Latency.p50_ns; all.Svc.Latency.p99_ns; all.Svc.Latency.p999_ns;
      all.Svc.Latency.mean_ns; all.Svc.Latency.max_ns;
    ]

(* Every quantile, the max and the mean of the "all" digest against an
   independent reference: the samples as floats, sorted with
   Array.sort Float.compare and read with Util.Stats.percentile, and
   their mean summed in request order by Util.Stats.mean. Samples are
   signed, so the class bits ride below negative latencies too; sizes
   straddle the 1000-sample p999 cut. *)
let qcheck_digest_quantiles =
  QCheck.Test.make ~name:"digest quantiles = Stats.percentile" ~count:100
    QCheck.(pair (1 -- 2_500) (0 -- 1_000_000))
    (fun (n, seed) ->
      let rng = Util.Rng.create ~seed in
      let samples =
        Array.init n (fun _ -> Util.Rng.int rng 2_000_001 - 1_000_000)
      in
      let cls = Array.init n (fun _ -> Util.Rng.int rng Gen.n_classes) in
      let d = Svc.Latency.all_of (Svc.Latency.of_samples ~cls samples) in
      let floats = Array.map fi samples in
      let sorted = Array.copy floats in
      Array.sort Float.compare sorted;
      let pct = Util.Stats.percentile sorted in
      d.Svc.Latency.p50_ns = pct 0.5
      && d.Svc.Latency.p99_ns = pct 0.99
      && d.Svc.Latency.max_ns = sorted.(n - 1)
      && d.Svc.Latency.p999_ns
         = (if n < 1000 then d.Svc.Latency.max_ns else pct 0.999)
      && Int64.bits_of_float d.Svc.Latency.mean_ns
         = Int64.bits_of_float (Util.Stats.mean floats))

(* The one sort of (latency, class) keys gives, field for field, the
   digest of each class's own samples and of every sample; the means
   too, to the bit, because each sums in request order. *)
let qcheck_of_samples_is_digest =
  QCheck.Test.make ~name:"of_samples = digest of each class and of all"
    ~count:100
    QCheck.(pair (0 -- 2_500) (0 -- 1_000_000))
    (fun (n, seed) ->
      let rng = Util.Rng.create ~seed in
      let ns = Array.init n (fun _ -> Util.Rng.int rng 1_000_000_000) in
      let cls = Array.init n (fun _ -> Util.Rng.int rng Gen.n_classes) in
      let expected =
        Svc.Latency.digest "all" ns
        :: List.filter_map
             (fun c ->
               let s =
                 Array.of_list
                   (List.filteri (fun i _ -> cls.(i) = c) (Array.to_list ns))
               in
               if s = [||] then None
               else Some (Svc.Latency.digest Gen.class_names.(c) s))
             (List.init Gen.n_classes Fun.id)
      in
      compare (Svc.Latency.of_samples ~cls ns) expected = 0)

(* ---------- snapshot extra fields ---------- *)

let test_snapshot_extra_fields () =
  let path = Filename.temp_file "svc_snap" ".jsonl" in
  let hl = Obs.Health.create ~workers:1 ~structures:1 () in
  let snap =
    Obs.Snapshot.to_file ~health:hl ~invariants:Obs.Invariants.null
      ~extra:(fun () -> [ ("svc_queue_depth", Obs.Json.Int 17) ])
      ~path ()
  in
  Obs.Snapshot.sample snap;
  Obs.Snapshot.close snap;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj fields as j) ->
      Alcotest.(check (list string))
        "extras follow the health and checker fields"
        [ "seq"; "t"; "health"; "invariants"; "svc_queue_depth" ]
        (List.map fst fields);
      (match Obs.Json.member "svc_queue_depth" j with
      | Some (Obs.Json.Int 17) -> ()
      | _ -> Alcotest.fail "extra field wrong");
      (match Obs.Json.member "health" j with
      | Some (Obs.Json.Obj _) -> ()
      | _ -> Alcotest.fail "health field missing");
      if Obs.Json.member "invariants" j <> Some Obs.Json.Null then
        Alcotest.fail "checkers off, but their field is not null"
  | Ok _ -> Alcotest.fail "snapshot line is not an object"
  | Error e -> Alcotest.fail ("unparseable snapshot line: " ^ e)

(* ---------- Openloop golden digests ---------- *)

(* Sim.Openloop on the standard scenario, recorded at commit 36b5f90:
   the engine must reproduce these to the byte — not one wait,
   launch-wait or batches-seen figure may move. *)
let golden_standard =
  [
    (1, (241060, 20000, 1, 420000, 1038, 1874, 3101757911089112640));
    (8, (197787, 8945, 8, 795690, 3, 38, 535926878363528104));
    (64, (197758, 9628, 10, 4059384, 2, 28, 512954716549816802));
  ]

let openloop_digest (r : Sim.Openloop.result) =
  let h = ref 17 in
  let mix v = h := (!h * 1000003) lxor v land 0x3FFFFFFFFFFFFFFF in
  Array.iter mix r.Sim.Openloop.waits;
  Array.iter mix r.Sim.Openloop.launch_waits;
  Array.iter mix r.Sim.Openloop.batches_seen;
  !h

let test_openloop_golden () =
  let sc =
    match Svc.Scenario.find "standard" with
    | Some sc -> sc
    | None -> Alcotest.fail "standard scenario missing"
  in
  let (module S : Svc.Store.STORE) = sc.Svc.Scenario.store in
  let shards = sc.Svc.Scenario.sim_shards in
  let unit_ns = sc.Svc.Scenario.sim_ns_per_unit in
  let at, shard =
    engine_inputs
      (Gen.generate_n (Svc.Scenario.gen_sim sc) ~n:sc.Svc.Scenario.sim_requests)
      ~unit_ns ~shards
  in
  List.iter
    (fun (p, (makespan, batches, max_batch, total_work, m, in_sys, dg)) ->
      let models =
        Array.init shards (fun i ->
            S.model ~n_keys:sc.Svc.Scenario.n_keys ~shards i)
      in
      let r =
        Sim.Openloop.run (Sim.Openloop.config ~p ~shards ()) ~models ~at ~shard
      in
      let label = Printf.sprintf "P=%d" p in
      Alcotest.(check int) (label ^ ": makespan") makespan
        r.Sim.Openloop.makespan;
      Alcotest.(check int) (label ^ ": batches") batches r.Sim.Openloop.batches;
      Alcotest.(check int) (label ^ ": max_batch") max_batch
        r.Sim.Openloop.max_batch;
      Alcotest.(check int) (label ^ ": total_work") total_work
        r.Sim.Openloop.total_work;
      Alcotest.(check int) (label ^ ": m") m r.Sim.Openloop.max_batches_seen;
      Alcotest.(check int) (label ^ ": max_in_system") in_sys
        r.Sim.Openloop.max_in_system;
      Alcotest.(check int) (label ^ ": per-request digest") dg
        (openloop_digest r))
    golden_standard

(* ---------- stores ---------- *)

let test_store_registry () =
  List.iter
    (fun name ->
      match Svc.Store.find name with
      | Some (module S : Svc.Store.STORE) ->
          Alcotest.(check string) "name matches" name S.name
      | None -> Alcotest.fail ("missing store " ^ name))
    [ "skiplist"; "hashtable"; "two_three" ];
  Alcotest.(check bool) "unknown store rejected" true
    (Svc.Store.find "btree" = None)

let test_mix_folding () =
  let m = Gen.fold_range_into_get Gen.default_mix in
  Alcotest.(check (float 1e-9)) "range zero" 0.0 m.Gen.range;
  Alcotest.(check (float 1e-9)) "share conserved"
    (Gen.default_mix.Gen.get +. Gen.default_mix.Gen.range)
    m.Gen.get

(* ---------- qcheck properties ---------- *)

let qcheck_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample always lands in [0,n)" ~count:200
    QCheck.(pair (1 -- 5_000) (0 -- 300))
    (fun (n, theta_pct) ->
      let z = Gen.zipf ~n ~theta:(fi theta_pct /. 100.0) in
      let rng = Util.Rng.create ~seed:(n + theta_pct) in
      let ok = ref true in
      for _ = 1 to 50 do
        let r = Gen.zipf_sample rng z in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

let qcheck_replay =
  QCheck.Test.make ~name:"generate_n replays byte-identically per seed"
    ~count:60
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      let g = Gen.make ~seed ~n_keys:10_000 ~rate:25_000.0 () in
      Gen.generate_n g ~n:200 = Gen.generate_n g ~n:200)

let () =
  Alcotest.run "service"
    [
      ( "zipf",
        [
          Alcotest.test_case "rank-frequency monotone" `Quick
            test_zipf_rank_frequency_monotone;
          Alcotest.test_case "theta=0 is uniform" `Quick
            test_zipf_theta0_uniform;
          Alcotest.test_case "theta=1 special case" `Quick test_zipf_theta_one;
          Alcotest.test_case "scramble bijection" `Quick
            test_scramble_bijection;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
          Alcotest.test_case "burst mean rate" `Quick test_burst_mean_rate;
        ] );
      ( "replay",
        [
          Alcotest.test_case "fixed seed is byte-identical" `Quick
            test_replay_identical;
          Alcotest.test_case "locality replays recent keys" `Quick
            test_locality_replays_recent;
          Alcotest.test_case "stream pins, every field" `Quick
            test_stream_pins;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "deterministic" `Quick test_openloop_deterministic;
          Alcotest.test_case "sanity + wait bound" `Quick test_openloop_sanity;
          Alcotest.test_case "lemma-2 when underloaded" `Quick
            test_openloop_lemma2_when_underloaded;
          Alcotest.test_case "golden digests on standard" `Quick
            test_openloop_golden;
          Alcotest.test_case "unsorted input" `Quick
            test_openloop_unsorted_input;
          Alcotest.test_case "column lengths must match" `Quick
            test_openloop_length_mismatch;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "sim smoke point" `Quick test_sim_driver_smoke;
          Alcotest.test_case "sim point minor words" `Quick
            test_sim_driver_words;
          Alcotest.test_case "generator minor words" `Quick test_gen_words;
          Alcotest.test_case "runtime tiny point" `Quick test_rt_driver_tiny;
          Alcotest.test_case "runtime health stream" `Quick
            test_rt_driver_stream;
          Alcotest.test_case "sweep offered rate counts bursts" `Quick
            test_sweep_offered_counts_bursts;
          Alcotest.test_case "sweep knee status" `Quick test_sweep_knee_status;
        ] );
      ( "reqtrace",
        [
          Alcotest.test_case "runtime span conservation" `Quick
            test_rt_driver_trace_conservation;
          Alcotest.test_case "sim span conservation, deterministic" `Quick
            test_sim_driver_trace_conservation;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "latency digests exact" `Quick test_latency_digest;
          Alcotest.test_case "p999 small-sample semantics" `Quick
            test_latency_p999_small_sample;
          Alcotest.test_case "empty run digest" `Quick test_latency_empty_run;
          Alcotest.test_case "digest minor words" `Quick test_latency_words;
          Alcotest.test_case "snapshot extra fields" `Quick
            test_snapshot_extra_fields;
          Alcotest.test_case "store registry" `Quick test_store_registry;
          Alcotest.test_case "mix folding" `Quick test_mix_folding;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_zipf_in_range;
            qcheck_replay;
            qcheck_digest_quantiles;
            qcheck_of_samples_is_digest;
          ] );
    ]
