(* Runtime hot-path microbenchmarks (the PR-by-PR before/after evidence):

     M1  contended submit — ops/s of [Batcher_rt.batchify] from a
         grain-1 parallel loop, across worker counts.
         Every row reports minor words per op: exact single-domain
         arithmetic at workers=1, and a per-worker barrier-sampled sum
         at workers>1 (Gc.minor_words is domain-local).
     M2  Chase-Lev deque — owner push/pop throughput and a cross-domain
         steal drain, for both the current single-atomic packed-word
         deque and the retired two-atomic variant (bench/deque_legacy).
     M3  sharded contended submit — the M1 workload against K
         [Shard_rt] shards of a linear-service structure (batch cost
         s(n/K), modeled by a calibrated sleep), K in {1,2,4,8}.
         speedup_vs_k1 is the headline: per-shard Invariant 1 overlaps
         batches across workers while each batch gets K times cheaper.

   Results are MERGED into BENCH_results.json (default; OUT= overrides):
   existing experiment records are preserved, regenerated records are
   replaced, so the perf trajectory accumulates across PRs next to the
   main bench tables. QUICK=1 shrinks op counts for CI; ONLY=M1[,M2...]
   restricts which experiments run.

   Timing is wall-clock best-of-N via Obs.Clock.now_ns — bechamel's OLS
   is overkill here because one "run" is a whole pool run with domain
   wakeups, so per-run variance dwarfs per-op cost; best-of filters the
   scheduler noise all machines with fewer cores than workers exhibit. *)

let quick = Sys.getenv_opt "QUICK" <> None

let out_path =
  match Sys.getenv_opt "OUT" with Some p -> p | None -> "BENCH_results.json"

let only =
  match Sys.getenv_opt "ONLY" with
  | None -> None
  | Some s -> Some (String.split_on_char ',' (String.uppercase_ascii s))

let want id = match only with None -> true | Some l -> List.mem id l

(* Best-of-N repetitions. Scheduler noise is one-sided (preemption only
   ever adds time), so on oversubscribed machines the best-of over more
   reps converges to the true mechanism cost; REPS= overrides. Rows
   whose measured section runs more than one domain (M1 workers>1, the
   M2 steal drain) default to 8 reps — on the 1-CPU container the extra
   domains guarantee preemption mid-measurement, and fewer reps make
   best-of itself a noise source (ROADMAP PR-4 note). *)
let reps ~multi =
  match Sys.getenv_opt "REPS" with
  | Some s -> int_of_string s
  | None -> if quick then 2 else if multi then 8 else 5

let time_ns f =
  let t0 = Obs.Clock.now_ns () in
  f ();
  Obs.Clock.now_ns () - t0

(* Best over [n] runs, warning on [label] when the run-to-run spread
   (stddev/mean) exceeds 5% — the threshold beyond which a best-of
   estimate on this container should be read as a bound, not a value. *)
let best_of ~label n f =
  let samples = Array.init n (fun _ -> float_of_int (time_ns f)) in
  let s = Util.Stats.summarize samples in
  if s.Util.Stats.n > 1 && s.Util.Stats.mean > 0.0 then begin
    let cv = s.Util.Stats.stddev /. s.Util.Stats.mean in
    if cv > 0.05 then
      Printf.printf
        "[micro] noise warning: %s stddev/mean = %.1f%% over %d reps (best-of \
         is a lower bound)\n"
        label (100.0 *. cv) n
  end;
  int_of_float s.Util.Stats.min

let ops_per_sec ~ops ~ns =
  if ns <= 0 then 0.0 else float_of_int ops *. 1e9 /. float_of_int ns

(* ---------- M1: contended submit ---------- *)

(* BACKOFF=flat | spin selects an ablation of the pool's backoff policy
   (flat 0.2ms sleeps, or pure spinning); default is the tuned ramp.
   Used to attribute M1 movement to the submit path vs. idle policy. *)
let bench_backoff =
  match Sys.getenv_opt "BACKOFF" with
  | Some "flat" ->
      Some
        {
          Runtime.Pool.default_backoff with
          sleep_min = 0.000_2;
          sleep_max = 0.000_2;
        }
  | Some "spin" ->
      Some
        {
          Runtime.Pool.default_backoff with
          spin_limit = max_int;
          burst_limit = max_int;
        }
  | _ -> None

(* Sum of minor words allocated across all worker domains while [f]
   runs. [Gc.minor_words] is domain-local, so each worker samples its
   own counter from inside a barrier task: [workers] tasks each spin
   until all have started, which pins them to distinct workers (a
   worker cannot start a second task while its first is spinning), and
   each then reads its domain's counter into its worker's slot. The two
   barrier passes themselves allocate a few hundred words — noise at
   thousands of ops. *)
let minor_words_all ~pool ~workers f =
  let sample out =
    let arrived = Atomic.make 0 in
    Runtime.Pool.run pool (fun () ->
        Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:workers (fun _ ->
            let w =
              match Runtime.Pool.worker_index () with Some w -> w | None -> 0
            in
            Atomic.incr arrived;
            while Atomic.get arrived < workers do
              Domain.cpu_relax ()
            done;
            out.(w) <- Gc.minor_words ()))
  in
  let before = Array.make workers 0.0 and after = Array.make workers 0.0 in
  sample before;
  f ();
  sample after;
  let sum = ref 0.0 in
  for w = 0 to workers - 1 do
    sum := !sum +. after.(w) -. before.(w)
  done;
  !sum

let contended_submit ~workers ~n_ops =
  let pool =
    Runtime.Pool.create ?backoff:bench_backoff ~num_workers:workers ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let submit_all n =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)))
      in
      submit_all (min 256 n_ops);  (* warmup: faults pages, wakes domains *)
      (* Scheduler-independent cost proxy: minor words allocated per op.
         Exact single-domain arithmetic at workers=1; a barrier-sampled
         per-worker sum otherwise. *)
      let words_per_op =
        if workers = 1 then begin
          let w0 = Gc.minor_words () in
          submit_all n_ops;
          (Gc.minor_words () -. w0) /. float_of_int n_ops
        end
        else
          minor_words_all ~pool ~workers (fun () -> submit_all n_ops)
          /. float_of_int n_ops
      in
      let label = Printf.sprintf "M1 workers=%d" workers in
      ( best_of ~label (reps ~multi:(workers > 1)) (fun () -> submit_all n_ops),
        words_per_op ))

let m1_rows () =
  let n_ops =
    match Sys.getenv_opt "N_OPS" with
    | Some s -> int_of_string s
    | None -> if quick then 2_000 else 8_000
  in
  List.map
    (fun workers ->
      let ns, words = contended_submit ~workers ~n_ops in
      (workers, n_ops, ns, ops_per_sec ~ops:n_ops ~ns, words))
    [ 1; 2; 4 ]

(* ---------- M2: Chase-Lev deque ---------- *)

(* Two implementations behind one signature: the live single-atomic
   packed-word deque, and the retired two-atomic one it replaced
   (variant column in the rows). *)
module type DEQUE = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
  val steal : 'a t -> 'a option
end

(* Owner-only throughput: fill/drain bursts through a warm deque. *)
let deque_push_pop (module D : DEQUE) ~variant ~n =
  let q : int D.t = D.create () in
  best_of
    ~label:(Printf.sprintf "M2 push_pop %s" variant)
    (reps ~multi:false)
    (fun () ->
      let burst = 512 in
      let rounds = n / burst in
      for _ = 1 to rounds do
        for i = 1 to burst do
          D.push q i
        done;
        for _ = 1 to burst do
          ignore (D.pop q)
        done
      done)

(* One thief domain drains everything the owner pushed. *)
let deque_steal_drain (module D : DEQUE) ~variant ~n =
  best_of
    ~label:(Printf.sprintf "M2 steal_drain %s" variant)
    (reps ~multi:true)
    (fun () ->
      let q : int D.t = D.create () in
      for i = 1 to n do
        D.push q i
      done;
      let thief =
        Domain.spawn (fun () ->
            let got = ref 0 in
            while !got < n do
              match D.steal q with
              | Some _ -> incr got
              | None -> Domain.cpu_relax ()
            done)
      in
      Domain.join thief)

let m2_rows () =
  let n = if quick then 50_000 else 500_000 in
  let n_steal = if quick then 20_000 else 100_000 in
  List.concat_map
    (fun (variant, d) ->
      let pp = deque_push_pop d ~variant ~n in
      let sd = deque_steal_drain d ~variant ~n:n_steal in
      [
        (variant, "push_pop", 2 * n, pp, ops_per_sec ~ops:(2 * n) ~ns:pp);
        (variant, "steal_drain", n_steal, sd, ops_per_sec ~ops:n_steal ~ns:sd);
      ])
    [
      ("single_atomic", (module Runtime.Wsdeque : DEQUE));
      ("two_atomic", (module Deque_legacy : DEQUE));
    ]

(* ---------- M3: sharded contended submit (K-sweep) ---------- *)

(* The sharding tradeoff made literal: a linear-service structure's BOP
   at 1/K of the keyspace costs s(n/K) = delta/K, modeled as a
   calibrated sleep ahead of a real Counter BOP (so the sweep stays
   result-checked). K = 1 serializes those services through the single
   batch flag (Invariant 1); at K > 1 the invariant is per shard, so up
   to [workers] services overlap while each is K times cheaper —
   exactly the O((T1 + K n s(n/K))/P + m s(n/K) + T_inf) composed
   bound's mechanism. Keys route through [Batched.Shard.route], the
   production path. *)
let m3_service_s = 0.001

let sharded_submit ~shards ~workers ~n_ops =
  let pool =
    Runtime.Pool.create ?backoff:bench_backoff ~num_workers:workers ()
  in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let service = m3_service_s /. float_of_int shards in
      let rt =
        Runtime.Shard_rt.create ~pool ~shards
          ~state:(fun _ -> Batched.Counter.create ())
          ~run_batch:(fun _pool st ops ->
            Unix.sleepf service;
            Batched.Counter.run_batch st ops)
          ()
      in
      let submitted = ref 0 in
      let submit_all n =
        submitted := !submitted + n;
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                Runtime.Shard_rt.batchify rt
                  ~shard:(Batched.Shard.route ~shards i)
                  (Batched.Counter.op 1)))
      in
      submit_all (min 64 n_ops);
      let label = Printf.sprintf "M3 K=%d workers=%d" shards workers in
      let ns = best_of ~label (reps ~multi:true) (fun () -> submit_all n_ops) in
      (* Result check: every +1 landed in exactly one shard's counter. *)
      let total = ref 0 in
      for i = 0 to shards - 1 do
        total := !total + Batched.Counter.value (Runtime.Shard_rt.state rt i)
      done;
      let total = !total in
      if total <> !submitted then
        failwith
          (Printf.sprintf "M3 K=%d: counters sum %d <> %d ops submitted"
             shards total !submitted);
      (ns, Runtime.Shard_rt.total_stats rt))

let m3_rows () =
  let workers = 2 in
  let n_ops =
    match Sys.getenv_opt "M3_OPS" with
    | Some s -> int_of_string s
    | None -> if quick then 96 else 384
  in
  let measured =
    List.map
      (fun k ->
        let ns, st = sharded_submit ~shards:k ~workers ~n_ops in
        (k, ns, st))
      [ 1; 2; 4; 8 ]
  in
  let base_ns =
    match measured with (1, ns, _) :: _ -> ns | _ -> assert false
  in
  List.map
    (fun (k, ns, (st : Runtime.Batcher_rt.stats)) ->
      let speedup =
        if ns <= 0 then 0.0 else float_of_int base_ns /. float_of_int ns
      in
      ( k,
        workers,
        n_ops,
        ns,
        ops_per_sec ~ops:n_ops ~ns,
        speedup,
        st.Runtime.Batcher_rt.batches,
        st.Runtime.Batcher_rt.max_batch ))
    measured

(* ---------- JSON merge + report ---------- *)

let experiment ~id ~title rows =
  Obs.Json.Obj
    [ ("id", Obs.Json.Str id); ("title", Obs.Json.Str title);
      ("rows", Obs.Json.List rows) ]

let () =
  let exps = ref [] in
  if want "M1" then begin
    Printf.printf "== M1: contended submit (batchify ops/s) ==\n";
    Printf.printf "%8s %8s %12s %14s %10s\n" "workers" "ops" "ns" "ops/s"
      "words/op";
    let m1 = m1_rows () in
    List.iter
      (fun (workers, ops, ns, rate, words) ->
        Printf.printf "%8d %8d %12d %14.0f %10.1f\n" workers ops ns rate words)
      m1;
    let m1_json =
      List.map
        (fun (workers, ops, ns, rate, words) ->
          Obs.Json.Obj
            [
              ("workers", Obs.Json.Int workers);
              ("ops", Obs.Json.Int ops);
              ("ns", Obs.Json.Int ns);
              ("ops_per_sec", Obs.Json.Float rate);
              ("minor_words_per_op", Obs.Json.Float words);
            ])
        m1
    in
    exps :=
      !exps
      @ [
          experiment ~id:"M1"
            ~title:"M1 — contended batchify submit (trapped BATCHIFY)"
            m1_json;
        ]
  end;
  if want "M2" then begin
    Printf.printf "\n== M2: Chase-Lev deque ==\n";
    Printf.printf "%-14s %-14s %10s %12s %14s\n" "variant" "case" "items" "ns"
      "ops/s";
    let m2 = m2_rows () in
    List.iter
      (fun (variant, case, items, ns, rate) ->
        Printf.printf "%-14s %-14s %10d %12d %14.0f\n" variant case items ns
          rate)
      m2;
    let m2_json =
      List.map
        (fun (variant, case, items, ns, rate) ->
          Obs.Json.Obj
            [
              ("variant", Obs.Json.Str variant);
              ("case", Obs.Json.Str case);
              ("items", Obs.Json.Int items);
              ("ns", Obs.Json.Int ns);
              ("ops_per_sec", Obs.Json.Float rate);
            ])
        m2
    in
    exps :=
      !exps
      @ [
          experiment ~id:"M2"
            ~title:
              "M2 — Chase-Lev deque data path: single-atomic packed word vs \
               retired two-atomic"
            m2_json;
        ]
  end;
  if want "M3" then begin
    Printf.printf
      "\n== M3: sharded contended submit (K-sweep, s(n/K) service) ==\n";
    Printf.printf "%6s %8s %8s %12s %14s %12s %9s %10s\n" "K" "workers" "ops"
      "ns" "ops/s" "vs K=1" "batches" "max_batch";
    let m3 = m3_rows () in
    List.iter
      (fun (k, workers, ops, ns, rate, speedup, batches, max_batch) ->
        Printf.printf "%6d %8d %8d %12d %14.0f %11.2fx %9d %10d\n" k workers
          ops ns rate speedup batches max_batch)
      m3;
    let m3_json =
      List.map
        (fun (k, workers, ops, ns, rate, speedup, batches, max_batch) ->
          Obs.Json.Obj
            [
              ("shards", Obs.Json.Int k);
              ("workers", Obs.Json.Int workers);
              ("ops", Obs.Json.Int ops);
              ("ns", Obs.Json.Int ns);
              ("ops_per_sec", Obs.Json.Float rate);
              ("speedup_vs_k1", Obs.Json.Float speedup);
              ("total_batches", Obs.Json.Int batches);
              ("max_batch", Obs.Json.Int max_batch);
            ])
        m3
    in
    exps :=
      !exps
      @ [
          experiment ~id:"M3"
            ~title:
              "M3 — sharded contended submit: K-sweep over Shard_rt, linear \
               s(n/K) service"
            m3_json;
        ]
  end;
  Batcher_core.Report_json.merge_experiments ~path:out_path
    ~generated_by:"bench/micro.exe" ~quick !exps;
  Printf.printf "\n[micro] merged %s into %s\n%!"
    (String.concat ", "
       (List.filter (want) [ "M1"; "M2"; "M3" ]))
    out_path
