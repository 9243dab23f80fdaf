(* Tests for the real multicore runtime: Chase-Lev deque, the fork-join
   pool, and the BATCHER runtime. Worker counts are kept small: the test
   machine may have a single core, and correctness — not speedup — is
   what these tests establish. *)

let with_pool ?probe n f =
  let pool = Runtime.Pool.create ?probe ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.teardown pool) (fun () -> f pool)

(* ---------- Wsdeque ---------- *)

let test_wsdeque_owner_lifo () =
  let d = Runtime.Wsdeque.create () in
  Runtime.Wsdeque.push d 1;
  Runtime.Wsdeque.push d 2;
  Runtime.Wsdeque.push d 3;
  Alcotest.(check (option int)) "pop" (Some 3) (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "steal" (Some 1) (Runtime.Wsdeque.steal d);
  Alcotest.(check (option int)) "pop" (Some 2) (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "empty pop" None (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Runtime.Wsdeque.steal d)

let test_wsdeque_growth () =
  let d = Runtime.Wsdeque.create () in
  for i = 0 to 9999 do
    Runtime.Wsdeque.push d i
  done;
  Alcotest.(check int) "size" 10000 (Runtime.Wsdeque.size d);
  let ok = ref true in
  for i = 0 to 9999 do
    if Runtime.Wsdeque.steal d <> Some i then ok := false
  done;
  Alcotest.(check bool) "fifo across growth" true !ok

let test_wsdeque_concurrent_steals () =
  (* One owner pushes/pops, two thieves steal; every element must be
     taken exactly once. *)
  let d = Runtime.Wsdeque.create () in
  let n = 20_000 in
  let taken = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    taken.(i) <- Atomic.make 0
  done;
  let mark = function
    | Some i -> ignore (Atomic.fetch_and_add taken.(i) 1)
    | None -> Domain.cpu_relax ()
  in
  let stop = Atomic.make false in
  let thief () =
    while not (Atomic.get stop) do
      mark (Runtime.Wsdeque.steal d)
    done;
    (* Final drain. *)
    let rec go () =
      match Runtime.Wsdeque.steal d with
      | Some i ->
          mark (Some i);
          go ()
      | None -> ()
    in
    go ()
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  for i = 0 to n - 1 do
    Runtime.Wsdeque.push d i;
    if i mod 3 = 0 then mark (Runtime.Wsdeque.pop d)
  done;
  let rec drain () =
    match Runtime.Wsdeque.pop d with
    | Some i ->
        mark (Some i);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) taken;
  Alcotest.(check int) "each element taken exactly once" 0 !bad

let test_wsdeque_bursty_stress () =
  (* Bursty push/pop cycles force buffer growth AND index wraparound
     while two thieves steal continuously; every element must be taken
     exactly once across pop and steal. *)
  let d = Runtime.Wsdeque.create () in
  let rounds = 100 and burst = 300 in
  let n = rounds * burst in
  let taken = Array.init n (fun _ -> Atomic.make 0) in
  let mark = function
    | Some i -> ignore (Atomic.fetch_and_add taken.(i) 1)
    | None -> Domain.cpu_relax ()
  in
  let stop = Atomic.make false in
  let thief () =
    while not (Atomic.get stop) do
      mark (Runtime.Wsdeque.steal d)
    done;
    let rec go () =
      match Runtime.Wsdeque.steal d with
      | Some i ->
          mark (Some i);
          go ()
      | None -> ()
    in
    go ()
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  let next = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to burst do
      Runtime.Wsdeque.push d !next;
      incr next
    done;
    (* Drain about half back so the bottom index keeps wrapping. *)
    for _ = 1 to burst / 2 do
      mark (Runtime.Wsdeque.pop d)
    done
  done;
  (* Owner drains to empty: a pop returning [None] means either empty
     or the last element lost to a thief — in both cases nothing is
     left for the owner. *)
  let rec drain () =
    match Runtime.Wsdeque.pop d with
    | Some i ->
        mark (Some i);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) taken;
  Alcotest.(check int) "each element taken exactly once" 0 !bad;
  Alcotest.(check int) "deque empty" 0 (Runtime.Wsdeque.size d)

(* ---------- Pool ---------- *)

let test_pool_run_returns () =
  with_pool 2 (fun pool ->
      let r = Runtime.Pool.run pool (fun () -> 21 * 2) in
      Alcotest.(check int) "result" 42 r)

let test_pool_exceptions_propagate () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "raises" Exit (fun () ->
          Runtime.Pool.run pool (fun () -> raise Exit)))

let test_pool_fork_join () =
  with_pool 3 (fun pool ->
      let a, b =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.fork_join pool (fun () -> 1 + 1) (fun () -> "x" ^ "y"))
      in
      Alcotest.(check int) "left" 2 a;
      Alcotest.(check string) "right" "xy" b)

let test_pool_fib () =
  with_pool 3 (fun pool ->
      let rec fib n =
        if n < 2 then n
        else begin
          let a, b = Runtime.Pool.fork_join pool (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
          a + b
        end
      in
      let r = Runtime.Pool.run pool (fun () -> fib 15) in
      Alcotest.(check int) "fib 15" 610 r)

let test_pool_parallel_for () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_parallel_for_empty () =
  with_pool 2 (fun pool ->
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "no body")))

let test_pool_nested_async () =
  with_pool 3 (fun pool ->
      let r =
        Runtime.Pool.run pool (fun () ->
            let ps =
              List.init 10 (fun i ->
                  Runtime.Pool.async pool (fun () ->
                      let q = Runtime.Pool.async pool (fun () -> i * i) in
                      Runtime.Pool.await pool q + 1))
            in
            List.fold_left (fun acc p -> acc + Runtime.Pool.await pool p) 0 ps)
      in
      Alcotest.(check int) "sum of i^2+1" (285 + 10) r)

let test_pool_await_exception () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "await re-raises" Exit (fun () ->
          Runtime.Pool.run pool (fun () ->
              let p = Runtime.Pool.async pool (fun () -> raise Exit) in
              Runtime.Pool.await pool p)))

let test_pool_prefix_sums () =
  with_pool 4 (fun pool ->
      let a = Array.init 1000 (fun i -> (i mod 7) - 3) in
      let expected = Util.Prefix_sum.inclusive a in
      let got = Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_prefix_sums pool a) in
      Alcotest.(check (array int)) "matches sequential" expected got)

let test_pool_parallel_map () =
  with_pool 3 (fun pool ->
      let a = Array.init 1000 Fun.id in
      let got = Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_map pool (fun x -> x * x) a) in
      Alcotest.(check (array int)) "squares" (Array.map (fun x -> x * x) a) got;
      let empty =
        Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_map pool (fun x -> x * x) [||])
      in
      Alcotest.(check (array int)) "empty" [||] empty)

let test_pool_map_reduce () =
  with_pool 3 (fun pool ->
      let a = Array.init 10_000 (fun i -> i + 1) in
      let total =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:0 a)
      in
      Alcotest.(check int) "sum 1..n" (10_000 * 10_001 / 2) total;
      let max_sq =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~grain:7 ~map:(fun x -> x * x) ~combine:max
              ~init:min_int a)
      in
      Alcotest.(check int) "max of squares" (10_000 * 10_000) max_sq;
      let empty =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:42 [||])
      in
      Alcotest.(check int) "empty gives init" 42 empty)

let test_pool_single_worker () =
  with_pool 1 (fun pool ->
      let r =
        Runtime.Pool.run pool (fun () ->
            let acc = ref 0 in
            Runtime.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> acc := !acc + i);
            !acc)
      in
      Alcotest.(check int) "sum" 4950 r)

let test_pool_reuse () =
  with_pool 2 (fun pool ->
      for i = 1 to 5 do
        let r = Runtime.Pool.run pool (fun () -> i * 10) in
        Alcotest.(check int) "reused run" (i * 10) r
      done)

(* ---------- Batcher_rt ---------- *)

let test_batcher_rt_counter () =
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let n = 500 in
      let results = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              let op = Batched.Counter.op 1 in
              Runtime.Batcher_rt.batchify b op;
              results.(i) <- op.Batched.Counter.result));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter);
      (* Linearizable counter: the returned values are a permutation of 1..n. *)
      let sorted = Array.copy results in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "results are 1..n" (Array.init n (fun i -> i + 1)) sorted;
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check int) "all ops batched" n st.Runtime.Batcher_rt.ops;
      Alcotest.(check bool) "batch cap respected" true
        (st.Runtime.Batcher_rt.max_batch <= Runtime.Pool.num_workers pool))

let test_batcher_rt_skiplist () =
  with_pool 3 (fun pool ->
      let sl = Batched.Skiplist.create () in
      (* The BOP's search phase really runs on the pool. *)
      let pfor pool n body =
        Runtime.Pool.parallel_for pool ~grain:4 ~lo:0 ~hi:n body
      in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:sl
          ~run_batch:(fun pool st ops ->
            Batched.Skiplist.run_batch_with ~pfor:(pfor pool) st ops)
          ()
      in
      let n = 300 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify b (Batched.Skiplist.insert i)));
      Alcotest.(check int) "all inserted" n (Batched.Skiplist.length sl);
      Batched.Skiplist.check_invariants sl;
      Alcotest.(check (list int)) "sorted 0..n-1" (List.init n Fun.id)
        (Batched.Skiplist.to_list sl))

let test_batcher_rt_parallel_bop () =
  (* A BOP that itself uses the pool's parallelism. *)
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let run_batch pool (st : Batched.Counter.t) (ops : Batched.Counter.op array) =
        let amounts = Array.map (fun (o : Batched.Counter.op) -> o.Batched.Counter.amount) ops in
        let sums = Runtime.Pool.parallel_prefix_sums pool amounts in
        let base = Batched.Counter.value st in
        Runtime.Pool.parallel_for pool ~lo:0 ~hi:(Array.length ops) (fun i ->
            ops.(i).Batched.Counter.result <- base + sums.(i));
        ignore (Batched.Counter.increment_seq st (if Array.length sums = 0 then 0 else sums.(Array.length sums - 1)))
      in
      let b = Runtime.Batcher_rt.create ~pool ~state:counter ~run_batch () in
      let n = 200 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter))

let test_batcher_rt_multiple_structures () =
  (* Three implicitly batched structures driven from one parallel
     program, with nested parallelism — the composition Theorem 1 prices
     per structure, exercised end to end on real domains. *)
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let counter_b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _p st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let sl = Batched.Skiplist.create () in
      let sl_b =
        Runtime.Batcher_rt.create ~pool ~state:sl
          ~run_batch:(fun _p st ops -> Batched.Skiplist.run_batch st ops)
          ()
      in
      let ht = Batched.Hashtable.create () in
      let ht_b =
        Runtime.Batcher_rt.create ~pool ~state:ht
          ~run_batch:(fun _p st ops -> Batched.Hashtable.run_batch st ops)
          ()
      in
      let n = 300 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify counter_b (Batched.Counter.op 1);
              Runtime.Batcher_rt.batchify sl_b (Batched.Skiplist.insert i);
              Runtime.Batcher_rt.batchify ht_b
                (Batched.Hashtable.insert ~key:i ~value:(i * 2))));
      Alcotest.(check int) "counter" n (Batched.Counter.value counter);
      Alcotest.(check int) "skiplist" n (Batched.Skiplist.length sl);
      Batched.Skiplist.check_invariants sl;
      Alcotest.(check int) "hashtable" n (Batched.Hashtable.length ht);
      Batched.Hashtable.check_invariants ht;
      Alcotest.(check (option int)) "hashtable value" (Some 42)
        (Batched.Hashtable.lookup_seq ht 21))

let test_batcher_rt_sp_order () =
  (* The SP-order structure behind the batcher, as in the race-detection
     example, checked for fork-relation correctness after parallel use. *)
  with_pool 3 (fun pool ->
      let sp, root = Batched.Sp_order.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:sp
          ~run_batch:(fun _p sp ops -> Batched.Sp_order.run_batch sp ops)
          ()
      in
      let forks = 64 in
      let results = Array.make forks None in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:forks (fun i ->
              let op = Batched.Sp_order.fork_op root in
              Runtime.Batcher_rt.batchify b op;
              match op with
              | Batched.Sp_order.Fork r -> results.(i) <- Some r
              | Batched.Sp_order.Precedes _ -> assert false));
      Batched.Sp_order.check_invariants sp;
      Array.iter
        (function
          | None -> Alcotest.fail "missing fork result"
          | Some r -> begin
              match r.Batched.Sp_order.left, r.Batched.Sp_order.right with
              | Some l, Some rr ->
                  Alcotest.(check bool) "siblings parallel" true
                    (Batched.Sp_order.parallel_seq sp l rr)
              | _ -> Alcotest.fail "fork record not filled"
            end)
        results)

let test_batcher_rt_randomized_stress () =
  (* Randomized mix of stack pushes/pops through the batcher from a
     parallel loop, checked against the multiset of surviving values. *)
  let rng = Util.Rng.create ~seed:2024 in
  for _round = 1 to 3 do
    with_pool 3 (fun pool ->
        let st = Batched.Stack.create () in
        let b =
          Runtime.Batcher_rt.create ~pool ~state:st
            ~run_batch:(fun _p s ops -> Batched.Stack.run_batch s ops)
            ()
        in
        let n = 200 + Util.Rng.int rng 200 in
        let pushes = Atomic.make 0 in
        let pops_hit = Atomic.make 0 in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                if i land 3 <> 0 then begin
                  Runtime.Batcher_rt.batchify b (Batched.Stack.push i);
                  ignore (Atomic.fetch_and_add pushes 1)
                end
                else begin
                  let op = Batched.Stack.pop () in
                  Runtime.Batcher_rt.batchify b op;
                  match op with
                  | Batched.Stack.Pop { popped = Some _ } ->
                      ignore (Atomic.fetch_and_add pops_hit 1)
                  | _ -> ()
                end));
        (* Conservation: size = pushes - successful pops. *)
        Alcotest.(check int) "stack size conserved"
          (Atomic.get pushes - Atomic.get pops_hit)
          (Batched.Stack.size st))
  done

(* ---------- the trapped batch path ---------- *)

(* A batched "structure" whose batch log records admission order: the
   BOP appends each record's payload in ops-array order. Invariant 1
   (one batch in flight) is what makes the unsynchronized ref sound. *)
let with_log_batcher ?(on_batch = fun () -> ()) ?probe ~workers f =
  with_pool ?probe workers (fun pool ->
      let log = ref [] in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:()
          ~run_batch:(fun _pool () ops ->
            on_batch ();
            Array.iter (fun id -> log := id :: !log) ops)
          ()
      in
      f pool b (fun () -> List.rev !log))

let check_exactly_once ~n admitted =
  Alcotest.(check (list int))
    "every record admitted exactly once (none lost, none duplicated)"
    (List.init n Fun.id)
    (List.sort compare admitted)

let spin_ns ns =
  let until = Obs.Clock.now_ns () + ns in
  while Obs.Clock.now_ns () < until do
    Domain.cpu_relax ()
  done

let test_batcher_rt_at_most_p_pending () =
  (* A caller is trapped until its op completes, so each worker has at
     most one op pending: read from inside the BOP, the structure's
     pending balance (submitted - collected) never exceeds P, and no
     batch exceeds the cap. The BOP spins so that the other workers
     publish while it runs. *)
  let p = 3 and n = 300 in
  let inv = Obs.Invariants.create ~structures:1 () in
  let max_pending = ref 0 in
  let on_batch () =
    spin_ns 20_000;
    max_pending := max !max_pending (Obs.Invariants.pending inv ~sid:0)
  in
  with_log_batcher ~on_batch
    ~probe:(Obs.Probe.create ~invariants:inv ())
    ~workers:p
    (fun pool b admitted ->
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify b i));
      check_exactly_once ~n (admitted ());
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check bool)
        (Printf.sprintf "pending <= P (max %d)" !max_pending)
        true (!max_pending <= p);
      Alcotest.(check bool)
        (Printf.sprintf "max_batch %d <= cap" st.Runtime.Batcher_rt.max_batch)
        true
        (st.Runtime.Batcher_rt.max_batch <= p);
      Alcotest.(check int) "no overflow path" 0 st.Runtime.Batcher_rt.ovf;
      Alcotest.(check int) "checkers quiet (Lemma 2 at 2 included)" 0
        (Obs.Invariants.total_violations inv))

let test_batcher_rt_bop_on_batch_deque () =
  (* A BOP's parallel_for pushes its right half on the launcher's batch
     deque; the left half waits until the other worker has stolen and
     run it. The launcher then returns from batchify on the worker it
     started on: it helped instead of suspending, so no continuation was
     captured. *)
  with_pool 2 (fun pool ->
      let right_done = Atomic.make false in
      let right_worker = ref (-1) in
      let timed_out = ref false in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:()
          ~run_batch:(fun pool () _ops ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:2 (fun i ->
                if i = 1 then begin
                  right_worker :=
                    Option.value ~default:(-1) (Runtime.Pool.worker_index ());
                  Atomic.set right_done true
                end
                else begin
                  let deadline = Obs.Clock.now_ns () + 5_000_000_000 in
                  while
                    (not (Atomic.get right_done))
                    && Obs.Clock.now_ns () < deadline
                  do
                    Domain.cpu_relax ()
                  done;
                  if not (Atomic.get right_done) then timed_out := true
                end))
          ()
      in
      let before, after =
        Runtime.Pool.run pool (fun () ->
            let before = Runtime.Pool.worker_index () in
            Runtime.Batcher_rt.batchify b ();
            (before, Runtime.Pool.worker_index ()))
      in
      Alcotest.(check bool) "right half ran" false !timed_out;
      Alcotest.(check (option int)) "launcher returns on its worker" before
        after;
      Alcotest.(check bool) "right half ran on the other worker" true
        (Some !right_worker <> before && !right_worker >= 0))

let test_batcher_rt_helper_leaves_batch_context () =
  (* A trapped worker that steals a BOP's task runs it in batch context
     and then leaves that context: once its batchify returns, the task is
     back in core context, so a second batchify in the same task works.
     Two tasks each call batchify twice. The first BOP waits until both
     tasks have entered batchify, so the other worker is trapped from
     then on; its parallel_for's left half then waits until that worker
     has stolen and run the right half from the launcher's batch deque. *)
  with_pool 2 (fun pool ->
      let counter = Batched.Counter.create () in
      let entered = Atomic.make 0 in
      let first = Atomic.make true in
      let launcher = ref (-1) in
      let right_worker = Atomic.make (-1) in
      let timed_out = Atomic.make false in
      let wait_for cond =
        let deadline = Obs.Clock.now_ns () + 5_000_000_000 in
        while (not (cond ())) && Obs.Clock.now_ns () < deadline do
          Domain.cpu_relax ()
        done;
        if not (cond ()) then Atomic.set timed_out true
      in
      let worker () = Option.value ~default:(-1) (Runtime.Pool.worker_index ()) in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun pool st ops ->
            if Atomic.exchange first false then begin
              wait_for (fun () -> Atomic.get entered = 2);
              launcher := worker ();
              Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:2 (fun i ->
                  if i = 1 then Atomic.set right_worker (worker ())
                  else wait_for (fun () -> Atomic.get right_worker >= 0))
            end;
            Batched.Counter.run_batch st ops)
          ()
      in
      let after = Array.make 2 (true, false) in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:2 (fun i ->
              Atomic.incr entered;
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1);
              let in_batch = Runtime.Pool.in_batch () in
              let second =
                match Runtime.Batcher_rt.batchify b (Batched.Counter.op 1) with
                | () -> true
                | exception Invalid_argument _ -> false
              in
              after.(i) <- (in_batch, second)));
      Alcotest.(check bool) "no wait timed out" false (Atomic.get timed_out);
      Alcotest.(check bool) "right half ran on the trapped worker" true
        (Atomic.get right_worker >= 0 && Atomic.get right_worker <> !launcher);
      Array.iteri
        (fun i (in_batch, second) ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d: core context after batchify" i)
            false in_batch;
          Alcotest.(check bool)
            (Printf.sprintf "task %d: second batchify succeeds" i)
            true second)
        after;
      Alcotest.(check int) "every op applied" 4 (Batched.Counter.value counter))

let test_batcher_rt_worker_id_migration () =
  (* A task can still migrate between batchify calls: a core await
     suspends it and it may resume on another worker. Each publication
     goes to the slot of the worker running the task at that moment
     (batchify asserts the slot is free), so repeated submit rounds with
     an await in between keep results linearizable. The BOP spins, so
     ops published while it runs wait behind the busy flag. *)
  with_pool 3 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _pool st ops ->
            spin_ns 10_000;
            Batched.Counter.run_batch st ops)
          ()
      in
      let tasks = 12 and rounds = 25 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:tasks (fun _ ->
              for _ = 1 to rounds do
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1);
                Runtime.Pool.await pool
                  (Runtime.Pool.async pool (fun () -> spin_ns 2_000))
              done));
      Alcotest.(check int) "value" (tasks * rounds)
        (Batched.Counter.value counter);
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check int) "ops" (tasks * rounds) st.Runtime.Batcher_rt.ops)

let test_batcher_rt_misuse () =
  (* Outside a pool task the caller has no slot; inside a BOP the call
     could never complete (its worker is running the batch). Both raise
     Invalid_argument before publishing anything. *)
  with_pool 2 (fun pool ->
      let counter = Batched.Counter.create () in
      let run_counter _pool st ops = Batched.Counter.run_batch st ops in
      let other =
        Runtime.Batcher_rt.create ~pool ~state:counter ~run_batch:run_counter ()
      in
      let nested = ref `Not_called in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun pool st ops ->
            (match Runtime.Batcher_rt.batchify other (Batched.Counter.op 1) with
            | () -> nested := `Returned
            | exception Invalid_argument _ -> nested := `Raised);
            run_counter pool st ops)
          ()
      in
      (match Runtime.Batcher_rt.batchify b (Batched.Counter.op 1) with
      | () -> Alcotest.fail "batchify outside a pool task returned"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "nothing published" 0
        (Runtime.Batcher_rt.stats b).Runtime.Batcher_rt.ops;
      Runtime.Pool.run pool (fun () ->
          Runtime.Batcher_rt.batchify b (Batched.Counter.op 1));
      Alcotest.(check bool) "nested batchify raised" true (!nested = `Raised);
      Alcotest.(check int) "only the outer op ran" 1
        (Batched.Counter.value counter))

let test_batcher_rt_words_per_op () =
  (* Allocation pin for the whole trapped path at one worker: a grain-1
     parallel_for of counter batchify calls (the ledger's
     batcher_rt.words_per_op shape), minor words per call. *)
  with_pool 1 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let n = 10_000 in
      let go () =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)))
      in
      go ();
      let w0 = Gc.minor_words () in
      go ();
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per batchify <= 120" words)
        true (words <= 120.0))

let test_pool_backoff_config () =
  (* Extreme idle policies — pure spin and sleep-almost-immediately
     with one steal probe per round — must not affect results. *)
  let open Runtime.Pool in
  let configs =
    [
      { default_backoff with spin_limit = 1_000_000; burst_limit = 1_000_000 };
      {
        default_backoff with
        spin_limit = 1;
        burst_limit = 2;
        sleep_min = 0.000_01;
        steal_tries = 1;
      };
    ]
  in
  List.iter
    (fun backoff ->
      let pool = create ~backoff ~num_workers:3 () in
      Fun.protect
        ~finally:(fun () -> teardown pool)
        (fun () ->
          let counter = Batched.Counter.create () in
          let b =
            Runtime.Batcher_rt.create ~pool ~state:counter
              ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
              ()
          in
          let n = 120 in
          let acc = Atomic.make 0 in
          run pool (fun () ->
              parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                  ignore (Atomic.fetch_and_add acc i);
                  Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
          Alcotest.(check int) "parallel_for sum" (n * (n - 1) / 2)
            (Atomic.get acc);
          Alcotest.(check int) "batched value" n (Batched.Counter.value counter)))
    configs

(* [with_pool] guards every test above with Fun.protect; this pins down
   that the guard actually works — teardown runs when the computation
   raises, the exception still propagates, and the runtime stays healthy
   enough to spin up and use a fresh pool afterwards (the domains of the
   failed pool were joined, not leaked). *)
let test_pool_teardown_under_exception () =
  (match
     with_pool 3 (fun pool ->
         Runtime.Pool.run pool (fun () ->
             ignore (Runtime.Pool.num_workers pool);
             failwith "boom"))
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "reraised" "boom" msg);
  let total =
    with_pool 2 (fun pool ->
        Runtime.Pool.run pool (fun () ->
            let acc = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                ignore (Atomic.fetch_and_add acc i));
            Atomic.get acc))
  in
  Alcotest.(check int) "fresh pool still works" 4950 total

(* Sharded extension of the teardown-under-exception regression: the
   computation blows up while shard 0 has a batch in flight (its BOP is
   mid-sleep on a worker) and trapped callers wait behind the busy flags
   (ops published while a BOP sleeps). Teardown must still join every
   domain, the exception must win the race, and the runtime must stay
   healthy enough to run fresh sharded work. *)
let test_shard_rt_teardown_in_flight () =
  (match
     with_pool 3 (fun pool ->
         let rt =
           Runtime.Shard_rt.create ~pool ~shards:2
             ~state:(fun _ -> Batched.Counter.create ())
             ~run_batch:(fun _pool st ops ->
               Unix.sleepf 0.02;
               Batched.Counter.run_batch st ops)
             ()
         in
         Runtime.Pool.run pool (fun () ->
             Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:6 (fun i ->
                 if i = 5 then begin
                   (* Let the submitters park and the BOPs start their
                      service sleeps before blowing up underneath them. *)
                   Unix.sleepf 0.005;
                   failwith "shard-boom"
                 end
                 else
                   Runtime.Shard_rt.batchify rt ~shard:(i land 1)
                     (Batched.Counter.op 1))))
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "reraised" "shard-boom" msg);
  let total =
    with_pool 2 (fun pool ->
        let rt =
          Runtime.Shard_rt.create ~pool ~shards:2
            ~state:(fun _ -> Batched.Counter.create ())
            ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
            ()
        in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:40 (fun i ->
                Runtime.Shard_rt.batchify rt
                  ~shard:(Batched.Shard.route ~shards:2 i)
                  (Batched.Counter.op 1)));
        Batched.Counter.value (Runtime.Shard_rt.state rt 0)
        + Batched.Counter.value (Runtime.Shard_rt.state rt 1))
  in
  Alcotest.(check int) "fresh pool runs sharded work" 40 total

let () =
  Alcotest.run "runtime"
    [
      ( "wsdeque",
        [
          Alcotest.test_case "owner lifo" `Quick test_wsdeque_owner_lifo;
          Alcotest.test_case "growth" `Quick test_wsdeque_growth;
          Alcotest.test_case "concurrent steals" `Slow test_wsdeque_concurrent_steals;
          Alcotest.test_case "bursty stress" `Slow test_wsdeque_bursty_stress;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run returns" `Quick test_pool_run_returns;
          Alcotest.test_case "exceptions" `Quick test_pool_exceptions_propagate;
          Alcotest.test_case "fork_join" `Quick test_pool_fork_join;
          Alcotest.test_case "fib" `Quick test_pool_fib;
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "parallel_for empty" `Quick test_pool_parallel_for_empty;
          Alcotest.test_case "nested async" `Quick test_pool_nested_async;
          Alcotest.test_case "await exception" `Quick test_pool_await_exception;
          Alcotest.test_case "prefix sums" `Quick test_pool_prefix_sums;
          Alcotest.test_case "parallel_map" `Quick test_pool_parallel_map;
          Alcotest.test_case "map_reduce" `Quick test_pool_map_reduce;
          Alcotest.test_case "single worker" `Quick test_pool_single_worker;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "backoff config" `Quick test_pool_backoff_config;
          Alcotest.test_case "teardown under exception" `Quick
            test_pool_teardown_under_exception;
        ] );
      ( "batcher_rt",
        [
          Alcotest.test_case "counter linearizable" `Quick test_batcher_rt_counter;
          Alcotest.test_case "skiplist" `Quick test_batcher_rt_skiplist;
          Alcotest.test_case "parallel BOP" `Quick test_batcher_rt_parallel_bop;
          Alcotest.test_case "three structures at once" `Quick
            test_batcher_rt_multiple_structures;
          Alcotest.test_case "sp-order under parallelism" `Quick test_batcher_rt_sp_order;
          Alcotest.test_case "randomized stress" `Slow test_batcher_rt_randomized_stress;
          Alcotest.test_case "at most P pending" `Quick
            test_batcher_rt_at_most_p_pending;
          Alcotest.test_case "BOP halves on the batch deque" `Quick
            test_batcher_rt_bop_on_batch_deque;
          Alcotest.test_case "trapped helper leaves batch context" `Quick
            test_batcher_rt_helper_leaves_batch_context;
          Alcotest.test_case "worker-id slot under task migration" `Quick
            test_batcher_rt_worker_id_migration;
          Alcotest.test_case "misuse raises" `Quick test_batcher_rt_misuse;
          Alcotest.test_case "minor words per batchify" `Quick
            test_batcher_rt_words_per_op;
          Alcotest.test_case "sharded teardown with batch in flight" `Quick
            test_shard_rt_teardown_in_flight;
        ] );
    ]
