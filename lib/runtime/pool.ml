type task = unit -> unit

type 'a outcome = ('a, exn) result

type 'a promise_state =
  | Done of 'a outcome
  | Waiting of ('a outcome -> unit) list

type 'a promise = 'a promise_state Atomic.t

(* Idle-worker policy, sweepable by lib/check's config ablations. All
   thresholds are in consecutive failed scheduling rounds ("misses"). *)
type backoff = {
  spin_limit : int;  (* misses served by a single [cpu_relax] *)
  spin_burst : int;  (* relax iterations per miss while bursting *)
  burst_limit : int;  (* misses before the worker starts sleeping *)
  sleep_min : float;  (* first sleep, seconds *)
  sleep_max : float;  (* cap of the exponential sleep ramp, seconds *)
  steal_tries : int;  (* steal attempts per round; 0 = 2 x workers *)
}

let default_backoff =
  {
    spin_limit = 16;
    spin_burst = 32;
    burst_limit = 64;
    sleep_min = 0.000_05;
    sleep_max = 0.002;
    steal_tries = 0;
  }

(* Each worker owns two deques, as in the paper's scheduler (Invariant
   3): a core deque for the program's tasks and a batch deque for tasks
   spawned inside a BOP. Batch work never suspends — an [await] in batch
   context helps with batch work instead — so a worker trapped in
   [Batcher_rt.batchify] can run batch tasks on top of its own stack and
   capture no continuation. *)
type t = {
  deques : task Wsdeque.t array;  (* core deques *)
  bdeques : task Wsdeque.t array;  (* batch deques *)
  mutable domains : unit Domain.t array;
  stop : bool Atomic.t;
  n : int;
  bo : backoff;
  obs : Obs.Probe.t;  (* every observer; shared with Batcher_rt *)
  rc : Obs.Recorder.t;  (* [obs]'s recorder: per-worker rings, each
                           domain writes only its own *)
  (* Work-class attribution (observed pools only). Slot [w] is worker
     [w]'s ambient class / the ns timestamp its current segment opened.
     Each worker touches only its own slots, so no sync — but the
     arrays are cache-line striped ([Pad.make_striped]) so one worker's
     per-task class flips don't evict its neighbours' slots. *)
  cls : Obs.Recorder.work_class array;  (* striped *)
  seg : int array;  (* striped *)
}

(* The per-domain scheduling context: which worker the domain is acting
   as, whether it is running batch work, and its private steal state.
   One record, so [async] and [await] pay one DLS lookup for both the
   worker id and the batch flag. *)
type ctx = {
  mutable wid : int option;  (* Some w while the domain acts as worker w *)
  mutable batch : bool;  (* running a BOP or a task spawned inside one *)
  mutable turn : int;  (* free-steal alternation: odd turns target batch deques *)
  mutable suppressed : int;  (* failed steals counted, not yet emitted *)
  rng : Util.Rng.t;  (* steal victims *)
}

let ctx_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        wid = None;
        batch = false;
        turn = 0;
        suppressed = 0;
        rng =
          Util.Rng.stream ~seed:0x600D5EED ~index:(Domain.self () :> int);
      })

let worker_index () = (Domain.DLS.get ctx_key).wid

let in_batch () = (Domain.DLS.get ctx_key).batch

let num_workers t = t.n

let probe t = t.obs

(* ---- work-class segments (observed pools only) ----

   A worker's wall-clock between segment boundaries is attributed to its
   ambient class: task bodies carry the class captured where they were
   created (async) or suspended (await), and the find-task / backoff
   time between tasks is [Wsched]. Emitted [Work] segments tile each
   worker's timeline from its loop entry to its exit. *)

let set_cls t w c =
  if Obs.Recorder.enabled t.rc && Pad.striped_get t.cls w <> c then begin
    let now = Obs.Recorder.now t.rc in
    let dur = now - Pad.striped_get t.seg w in
    if dur > 0 then
      Obs.Recorder.emit_work t.rc ~worker:w ~time:now
        ~cls:(Pad.striped_get t.cls w) ~units:dur;
    Pad.striped_set t.cls w c;
    Pad.striped_set t.seg w now
  end

(* Close the open segment without changing class (worker exit). *)
let flush_cls t w =
  if Obs.Recorder.enabled t.rc then begin
    let now = Obs.Recorder.now t.rc in
    let dur = now - Pad.striped_get t.seg w in
    if dur > 0 then
      Obs.Recorder.emit_work t.rc ~worker:w ~time:now
        ~cls:(Pad.striped_get t.cls w) ~units:dur;
    Pad.striped_set t.seg w now
  end

let work_class t =
  match worker_index () with
  | Some w when Obs.Recorder.enabled t.rc -> Pad.striped_get t.cls w
  | _ -> Obs.Recorder.Wcore

let set_work_class t c =
  match worker_index () with
  | Some w -> set_cls t w c
  | None -> ()

type _ Effect.t +=
  | Suspend : (('a, unit) Effect.Deep.continuation -> unit) -> 'a Effect.t

let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Suspend f ->
            Some (fun (k : (c, unit) Effect.Deep.continuation) -> f k)
        | _ -> None);
  }

let exec (task : task) = Effect.Deep.match_with task () handler

(* Run a task taken from a batch deque, in batch context. Batch tasks
   never perform [Suspend] (their awaits help), so no handler is needed,
   and the [async] wrapper keeps exceptions inside the promise. *)
let exec_batch c (task : task) =
  let was = c.batch in
  c.batch <- true;
  task ();
  c.batch <- was

(* Failed steals are counted in [c.suppressed], not recorded, so a
   recording's event count grows with the work done, not with idle
   time. The count goes out as one Steals_suppressed event before the
   worker's next recorded hit and when it leaves its loop, so
   [Obs.Summary]'s attempt totals stay exact. *)
let flush_misses t c my_id =
  if c.suppressed > 0 then begin
    Obs.Recorder.emit_steals_suppressed t.rc ~worker:my_id
      ~time:(Obs.Recorder.now t.rc) ~count:c.suppressed;
    c.suppressed <- 0
  end

(* A bounded sample of random steal attempts. A free worker
   ([batch_only = false]) alternates its attempts between core and batch
   deques, as [Sim.Batcher]'s free thieves do; a worker waiting on batch
   work targets batch deques only. A free worker's steal from a batch
   deque sets [c.batch], and [free_step] clears it after the task. A
   helper's steal leaves the flag alone: [exec_batch] sets it for the
   task and then restores the helper's own context, which is core
   context for a worker trapped in BATCHIFY. *)
let steal t c my_id ~batch_only =
  let observed = Obs.Recorder.enabled t.rc in
  let rec attempt tries =
    if tries = 0 then None
    else begin
      let victim = (my_id + 1 + Util.Rng.int c.rng (t.n - 1)) mod t.n in
      let batch =
        batch_only
        ||
        (c.turn <- c.turn + 1;
         c.turn land 1 = 1)
      in
      match
        Wsdeque.steal (if batch then t.bdeques.(victim) else t.deques.(victim))
      with
      | Some _ as task ->
          if observed then begin
            flush_misses t c my_id;
            Obs.Recorder.emit_steal t.rc ~worker:my_id
              ~time:(Obs.Recorder.now t.rc) ~victim ~success:true
              ~batch_deque:batch
          end;
          if batch && not batch_only then c.batch <- true;
          task
      | None ->
          if observed then c.suppressed <- c.suppressed + 1;
          attempt (tries - 1)
    end
  in
  if t.n <= 1 then None
  else attempt (if t.bo.steal_tries > 0 then t.bo.steal_tries else 2 * t.n)

(* A free worker's next task: its own core deque, then its own batch
   deque, then steals. Sets [c.batch] for batch tasks. *)
let find_task t c my_id =
  match Wsdeque.pop t.deques.(my_id) with
  | Some _ as task -> task
  | None -> (
      match Wsdeque.pop t.bdeques.(my_id) with
      | Some _ as task ->
          c.batch <- true;
          task
      | None -> steal t c my_id ~batch_only:false)

(* Failed-steal backoff: spin briefly, then burst-spin, then sleep on an
   exponential ramp — essential on machines with fewer cores than
   workers, and the reason an idle pool costs ~0 CPU after a few ms. *)
let backoff bo misses =
  if misses < bo.spin_limit then Domain.cpu_relax ()
  else if misses < bo.burst_limit then
    for _ = 1 to bo.spin_burst do
      Domain.cpu_relax ()
    done
  else begin
    (* sleep_min * 2^k, capped; [ldexp] keeps this allocation-free. *)
    let k = min 16 (misses - bo.burst_limit) in
    Unix.sleepf (Float.min bo.sleep_max (ldexp bo.sleep_min k))
  end

(* The idle step of a worker that waits on batch work — trapped in
   BATCHIFY, or awaiting inside a BOP. The batch it waits for is already
   running, and its end is on the critical path of the next batch, so
   the worker skips the burst phase: one relax per round up to
   [burst_limit] rounds, then the same sleep ramp, which still yields
   the core on an oversubscribed host. *)
let wait_backoff bo misses =
  if misses < bo.burst_limit then Domain.cpu_relax () else backoff bo misses

(* One scheduling round of a free worker; returns the new miss count. *)
let free_step t c my_id observed misses =
  Obs.Probe.beat t.obs ~worker:my_id;
  match find_task t c my_id with
  | Some task ->
      exec task;
      c.batch <- false;
      if observed then set_cls t my_id Obs.Recorder.Wsched;
      0
  | None ->
      backoff t.bo (misses + 1);
      misses + 1

(* One round of a worker that waits on batch work it cannot run itself:
   its own batch deque, then steals from other batch deques, else one
   [wait_backoff] step. The worker's batch flag and class are restored
   after a helped task. *)
let help_step t c my_id misses =
  let task =
    match Wsdeque.pop t.bdeques.(my_id) with
    | Some _ as task -> task
    | None -> steal t c my_id ~batch_only:true
  in
  match task with
  | Some task ->
      if Obs.Recorder.enabled t.rc then begin
        let cls = Pad.striped_get t.cls my_id in
        exec_batch c task;
        set_cls t my_id cls
      end
      else exec_batch c task;
      0
  | None ->
      wait_backoff t.bo (misses + 1);
      misses + 1

let help t misses =
  let c = Domain.DLS.get ctx_key in
  match c.wid with
  | Some w -> help_step t c w misses
  | None -> invalid_arg "Pool.help: not on a pool worker"

let exec_bop t bop s ops =
  let c = Domain.DLS.get ctx_key in
  let was = c.batch in
  c.batch <- true;
  match bop t s ops with
  | () -> c.batch <- was
  | exception e ->
      c.batch <- was;
      raise e

let start_worker t c my_id =
  c.wid <- Some my_id;
  c.batch <- false;
  (* The run-calling domain may have counted steals for another pool. *)
  c.suppressed <- 0;
  if Obs.Recorder.enabled t.rc then begin
    Pad.striped_set t.cls my_id Obs.Recorder.Wsched;
    Pad.striped_set t.seg my_id (Obs.Recorder.now t.rc)
  end

let worker_loop t my_id =
  let c = Domain.DLS.get ctx_key in
  start_worker t c my_id;
  let observed = Obs.Recorder.enabled t.rc in
  let misses = ref 0 in
  while not (Atomic.get t.stop) do
    misses := free_step t c my_id observed !misses
  done;
  if observed then begin
    flush_misses t c my_id;
    flush_cls t my_id
  end;
  c.wid <- None

let create ?(probe = Obs.Probe.null) ?(backoff = default_backoff) ~num_workers
    () =
  if num_workers < 1 then invalid_arg "Pool.create: num_workers >= 1";
  let recorder = Obs.Probe.recorder probe and health = Obs.Probe.health probe in
  if
    Obs.Recorder.enabled recorder
    && (Obs.Recorder.clock recorder <> Obs.Recorder.Nanoseconds
       || Obs.Recorder.workers recorder < num_workers)
  then
    invalid_arg
      "Pool.create: recorder must use the Nanoseconds clock and cover all workers";
  if Obs.Health.enabled health && Obs.Health.workers health < num_workers then
    invalid_arg "Pool.create: health must cover all workers";
  let t =
    {
      deques = Array.init num_workers (fun _ -> Wsdeque.create ());
      bdeques = Array.init num_workers (fun _ -> Wsdeque.create ());
      domains = [||];
      (* Padded: [stop] is polled by every worker each loop iteration
         and must not share a line with whatever is allocated next. *)
      stop = Pad.atomic false;
      n = num_workers;
      bo = backoff;
      obs = probe;
      rc = recorder;
      cls = Pad.make_striped num_workers Obs.Recorder.Wsched;
      seg = Pad.make_striped num_workers 0;
    }
  in
  t.domains <-
    Array.init (num_workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let teardown t =
  Atomic.set t.stop true;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

(* ---- promises ---- *)

let rec add_waiter (p : 'a promise) w =
  match Atomic.get p with
  | Done r -> w r
  | Waiting ws as old ->
      if not (Atomic.compare_and_set p old (Waiting (w :: ws))) then add_waiter p w

let rec complete (p : 'a promise) r =
  match Atomic.get p with
  | Done _ -> invalid_arg "Pool: promise completed twice"
  | Waiting ws as old ->
      if Atomic.compare_and_set p old (Done r) then List.iter (fun w -> w r) ws
      else complete p r

let async t f =
  let p : 'a promise = Atomic.make (Waiting []) in
  let task =
    if Obs.Recorder.enabled t.rc then begin
      (* The task inherits the submitter's ambient class, whatever
         worker ends up executing it. *)
      let c = work_class t in
      fun () ->
        set_work_class t c;
        let r = try Ok (f ()) with e -> Error e in
        complete p r
    end
    else
      fun () ->
        let r = try Ok (f ()) with e -> Error e in
        complete p r
  in
  (* Push on the deque of whichever worker is running us — its batch
     deque in batch context; external callers fall back to worker 0. *)
  let c = Domain.DLS.get ctx_key in
  let id = match c.wid with Some id -> id | None -> 0 in
  Wsdeque.push (if c.batch then t.bdeques.(id) else t.deques.(id)) task;
  p

let result (p : 'a promise) =
  match Atomic.get p with
  | Done (Ok v) -> v
  | Done (Error e) -> raise e
  | Waiting _ -> assert false

let await t (p : 'a promise) =
  match Atomic.get p with
  | Done (Ok v) -> v
  | Done (Error e) -> raise e
  | Waiting _ ->
      let c = Domain.DLS.get ctx_key in
      if c.batch then begin
        (* Batch context: help with batch work until [p] completes. The
           caller keeps its stack and its worker, so a BOP — and the
           trapped BATCHIFY under it — never captures a continuation. *)
        let w = match c.wid with Some w -> w | None -> 0 in
        let rec wait misses =
          match Atomic.get p with
          | Waiting _ -> wait (help_step t c w misses)
          | Done _ -> ()
        in
        wait 0;
        result p
      end
      else begin
        let observed = Obs.Recorder.enabled t.rc in
        (* Capture the suspending task's class so the continuation
           resumes in it wherever it is rescheduled. *)
        let cls = if observed then work_class t else Obs.Recorder.Wcore in
        Effect.perform
          (Suspend
             (fun k ->
               add_waiter p (fun r ->
                   (* The continuation is core work: it goes on the
                      resumer's core deque. *)
                   let id =
                     match worker_index () with Some id -> id | None -> 0
                   in
                   Wsdeque.push t.deques.(id) (fun () ->
                       if observed then set_work_class t cls;
                       match r with
                       | Ok v -> Effect.Deep.continue k v
                       | Error e -> Effect.Deep.discontinue k e))))
      end

let run t f =
  let p : 'a promise = Atomic.make (Waiting []) in
  let observed = Obs.Recorder.enabled t.rc in
  let root () =
    if observed then set_work_class t Obs.Recorder.Wcore;
    let r = try Ok (f ()) with e -> Error e in
    complete p r
  in
  let c = Domain.DLS.get ctx_key in
  let saved = c.wid in
  start_worker t c 0;
  Wsdeque.push t.deques.(0) root;
  let finish () =
    if observed then begin
      flush_misses t c 0;
      flush_cls t 0
    end;
    c.wid <- saved
  in
  let rec drive misses =
    match Atomic.get p with
    | Done (Ok v) ->
        finish ();
        v
    | Done (Error e) ->
        finish ();
        raise e
    | Waiting _ -> drive (free_step t c 0 observed misses)
  in
  drive 0

let fork_join t fa fb =
  let pb = async t fb in
  let a = fa () in
  let b = await t pb in
  (a, b)

let parallel_for t ?grain ~lo ~hi body =
  if hi > lo then begin
    let grain =
      match grain with
      | Some g -> max 1 g
      | None -> max 1 ((hi - lo) / (8 * t.n))
    in
    let rec go lo hi =
      if hi - lo <= grain then
        for i = lo to hi - 1 do
          body i
        done
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let right = async t (fun () -> go mid hi) in
        go lo mid;
        await t right
      end
    in
    go lo hi
  end

let parallel_map t ?grain f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    (* Index 0 is computed twice (once to seed the output array); the
       cost is one extra call, the benefit no Obj.magic. *)
    parallel_for t ?grain ~lo:0 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

let map_reduce t ?grain ~map ~combine ~init a =
  let n = Array.length a in
  let grain =
    match grain with Some g -> max 1 g | None -> max 1 (n / (8 * t.n))
  in
  let rec go lo hi =
    if hi - lo <= grain then begin
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := combine !acc (map a.(i))
      done;
      !acc
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = async t (fun () -> go mid hi) in
      let l = go lo mid in
      combine l (await t right)
    end
  in
  if n = 0 then init else go 0 n

let parallel_prefix_sums t a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let blocks = min n (4 * t.n) in
    let block_size = (n + blocks - 1) / blocks in
    let out = Array.make n 0 in
    let sums = Array.make blocks 0 in
    (* Pass 1: per-block inclusive scans. *)
    parallel_for t ~grain:1 ~lo:0 ~hi:blocks (fun bi ->
        let lo = bi * block_size in
        let hi = min n (lo + block_size) in
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := !acc + a.(i);
          out.(i) <- !acc
        done;
        sums.(bi) <- !acc);
    (* Sequential scan of the per-block totals. *)
    let offsets = Util.Prefix_sum.exclusive sums in
    (* Pass 2: add block offsets. *)
    parallel_for t ~grain:1 ~lo:0 ~hi:blocks (fun bi ->
        let lo = bi * block_size in
        let hi = min n (lo + block_size) in
        let off = offsets.(bi) in
        for i = lo to hi - 1 do
          out.(i) <- out.(i) + off
        done);
    out
  end
