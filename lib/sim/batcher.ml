type steal_policy =
  | Alternating
  | Core_only
  | Batch_only
  | Uniform_random

type overhead_model =
  | Tree_setup
  | Fused_setup
  | No_setup

type config = {
  p : int;
  seed : int;
  steal_policy : steal_policy;
  launch_threshold : int;
  batch_cap : int;
  sequential_batches : bool;
  overhead : overhead_model;
  check_invariants : bool;
  max_steps : int;
}

let default ~p =
  {
    p;
    seed = 1;
    steal_policy = Alternating;
    launch_threshold = 1;
    batch_cap = p;
    sequential_batches = false;
    overhead = Tree_setup;
    check_invariants = true;
    max_steps = 2_000_000_000;
  }

(* The run state of one dag: the core dag, or a batch dag of one
   structure, which a shape keeps per slot and [launch] resets. *)
type inst = {
  dag : Dag.t;
  preds_left : int array;
  (* Realized-critical-path depth: [depth.(v)] is the longest executed
     dependency chain (in work units) ending just before [v] starts —
     the max over enabling predecessors of their completion depth, and
     for a batch dag's source the max over the member operations' park
     depths. The core sink's completion depth is the measured T∞. *)
  depth : int array;
  (* BOP node-id range within a batch dag; nodes outside it are
     LAUNCHBATCH setup/cleanup overhead. Unused for the core dag. *)
  bop_lo : int;
  bop_hi : int;
}

type wstatus = Free | Pending | Executing | Done

type worker = {
  id : int;
  core_dq : Deque.t;
  batch_dq : Deque.t;
  mutable status : wstatus;
  mutable assigned : int;  (* task being executed; -1 for none *)
  mutable remaining : int;
  mutable steal_count : int;
  mutable suspended : int;  (* core-dag ds node awaiting its batch; -1 for none *)
  mutable sid : int;  (* structure of [suspended]; -1 for none *)
  mutable seen_batches : int;  (* batches executing since becoming pending *)
  mutable suspend_time : int;  (* timestep the pending op was parked *)
  mutable park_depth : int;  (* critical-path depth of the parked ds node *)
  mutable resume_depth : int;  (* depth handed back when the batch completes *)
  (* Work-class run accumulator for the Obs recorder: consecutive
     executed units of one class coalesce into a single Work event. *)
  mutable wcls : Obs.Recorder.work_class;
  mutable wrun : int;
  rng : Util.Rng.t;
}

(* The batch dag built for one BOP cost tree: setup ; BOP ; cleanup. *)
type shape = {
  s_dag : Dag.t;
  s_lo : int;  (* BOP node-id range, as [inst.bop_lo]/[bop_hi] *)
  s_hi : int;
  s_work : int;  (* Par work and span of the BOP *)
  s_span : int;
  s_insts : inst option array;  (* by slot: the inst of its last batch of this shape *)
}

type state = {
  cfg : config;
  workload : Workload.t;
  insts : inst array;  (* by slot: the core dag, then each structure's batch *)
  slot_bits : int;
  slot_mask : int;
  workers : worker array;
  stage : Par.t;  (* one LAUNCHBATCH setup or cleanup stage *)
  setup_charge : int;  (* setup work a batch reports: the stages' Par work *)
  shapes : (Par.t, shape) Hashtbl.t;  (* batch dags built so far, by BOP tree *)
  mutable core_queued : int;  (* tasks in all core deques *)
  mutable batch_queued : int;  (* tasks in all batch deques *)
  pending : int array;  (* per worker: suspended core ds node id, or -1 *)
  mutable pending_count : int;  (* parked operations, all structures *)
  pending_per : int array;  (* parked operations per structure *)
  active : int array option array;
      (* per structure: the member worker ids of its batch in flight (Inv. 1) *)
  mutable active_count : int;
  mutable finished : bool;
  mutable force_launch : bool;
  mutable units_this_step : int;
  (* metrics accumulators *)
  mutable time : int;
  mutable core_work : int;
  mutable batch_work : int;
  mutable setup_work : int;
  mutable batches : int;
  mutable batch_size_total : int;
  mutable max_batch_size : int;
  mutable steal_attempts : int;
  mutable steal_successes : int;
  mutable free_steal_attempts : int;
  mutable trapped_steal_attempts : int;
  mutable max_seen_batches : int;
  mutable span_realized : int;  (* critical-path depth at the core sink *)
  mutable batch_details : Metrics.batch_detail list;
  tracing : bool;
  mutable trace : Trace.event list;  (* reverse chronological *)
  obs : Obs.Probe.t;  (* the op lifecycle's observers; Obs.Probe.null = off *)
  rc : Obs.Recorder.t;  (* [obs]'s recorder, for status/steal/work events *)
  recording : bool;  (* [Obs.Recorder.enabled rc], read once per run *)
}

let make_inst ?(bop_lo = 0) ?(bop_hi = 0) dag =
  {
    dag;
    preds_left = Array.copy dag.Dag.pred_count;
    depth = Array.make (Array.length dag.Dag.pred_count) 0;
    bop_lo;
    bop_hi;
  }

(* A task is a ready node of a live dag, packed in one int as
   [(node lsl slot_bits) lor slot] (DESIGN.md §17). Slot 0 is the core
   dag and slot [sid + 1] structure [sid]'s batch in flight: Invariant 1
   allows at most one per structure, and a batch's sink runs after
   every other node of it, so no task of a finished batch is still
   queued or assigned when the next batch of its structure reuses the
   slot. *)
let task st ~slot node = (node lsl st.slot_bits) lor slot
let slot_of st task = task land st.slot_mask
let node_of st task = task lsr st.slot_bits

(* Whether [task] is a BOP node of its batch; false for the core dag. *)
let in_bop st task =
  let slot = slot_of st task in
  slot > 0
  &&
  let inst = st.insts.(slot) and node = node_of st task in
  node >= inst.bop_lo && node < inst.bop_hi

let attribute st task units =
  if slot_of st task = 0 then st.core_work <- st.core_work + units
  else if in_bop st task then st.batch_work <- st.batch_work + units
  else st.setup_work <- st.setup_work + units

let class_of_task st task =
  if slot_of st task = 0 then Obs.Recorder.Wcore
  else if in_bop st task then Obs.Recorder.Wbatch
  else Obs.Recorder.Wsetup

(* Work-run coalescing: a worker's consecutive same-class steps become
   one Work event stamped with the run's final step. Runs are flushed
   whenever the worker does something unclassifiable as that run (class
   change, steal step), so emitted segments tile the busy timeline. *)
let flush_run st w ~time =
  if w.wrun > 0 then begin
    Obs.Recorder.emit_work st.rc ~worker:w.id ~time ~cls:w.wcls ~units:w.wrun;
    w.wrun <- 0
  end

(* [units] consecutive steps of class [cls], the first at [st.time]. *)
let note st w cls units =
  if st.recording then begin
    if w.wrun > 0 && w.wcls <> cls then flush_run st w ~time:(st.time - 1);
    w.wcls <- cls;
    w.wrun <- w.wrun + units
  end

let assign st w task =
  w.assigned <- task;
  w.remaining <- st.insts.(slot_of st task).dag.Dag.costs.(node_of st task)

(* Pushes here and [take] keep the [core_queued]/[batch_queued] totals
   that the quiet-window scan reads. *)
let count_queued st task delta =
  if slot_of st task = 0 then st.core_queued <- st.core_queued + delta
  else st.batch_queued <- st.batch_queued + delta

let push st w task =
  Deque.push_bottom (if slot_of st task = 0 then w.core_dq else w.batch_dq) task;
  count_queued st task 1

(* Enable the successors of [slot]'s [node] after its completion: the
   first newly ready node is assigned to the completing worker, which
   has nothing assigned, and the rest are pushed in successor order on
   the deque matching the dag. [d] is the completed node's
   critical-path depth, propagated along every outgoing edge. *)
let enable_successors st w ~slot node ~d =
  let inst = st.insts.(slot) in
  let succs = inst.dag.Dag.succs.(node) in
  for i = 0 to Array.length succs - 1 do
    let s = succs.(i) in
    inst.preds_left.(s) <- inst.preds_left.(s) - 1;
    if d > inst.depth.(s) then inst.depth.(s) <- d;
    if inst.preds_left.(s) = 0 then
      if w.assigned < 0 then assign st w (task st ~slot s)
      else push st w (task st ~slot s)
  done

let complete_batch st ~finisher ~d sid =
  match st.active.(sid) with
  | None -> assert false
  | Some members ->
      Array.iter
        (fun m ->
          let wm = st.workers.(m) in
          if st.cfg.check_invariants && wm.status <> Executing then
            failwith "Batcher sim: member not executing at batch completion";
          wm.status <- Done;
          wm.resume_depth <- max wm.park_depth d;
          Obs.Recorder.emit_status st.rc ~worker:m ~time:st.time Obs.Recorder.Done;
          if wm.seen_batches > st.max_seen_batches then
            st.max_seen_batches <- wm.seen_batches;
          st.pending.(m) <- -1;
          st.pending_count <- st.pending_count - 1;
          st.pending_per.(sid) <- st.pending_per.(sid) - 1)
        members;
      Obs.Probe.finish st.obs ~time:st.time ~worker:finisher ~sid
        ~size:(Array.length members);
      if st.tracing then
        st.trace <- Trace.Batch_completed { time = st.time; sid; members } :: st.trace;
      st.active.(sid) <- None;
      st.active_count <- st.active_count - 1

let complete st w task =
  w.assigned <- -1;
  let slot = slot_of st task and node = node_of st task in
  let inst = st.insts.(slot) in
  (* Completion depth: chain units up to and including this node, clamped
     by elapsed steps (two dependent units can execute in one sweep when
     the successor's worker steps later in worker order; the clamp keeps
     the realized span a valid lower bound on the makespan). *)
  let d = min (inst.depth.(node) + inst.dag.Dag.costs.(node)) st.time in
  match inst.dag.Dag.kinds.(node) with
  | Dag.Ds idx when slot = 0 ->
      (* The operation record is parked; control does not pass the node
         until its batch completes (the worker is now trapped). *)
      if st.cfg.check_invariants && st.pending.(w.id) >= 0 then
        failwith "Batcher sim: worker already has a pending op";
      st.pending.(w.id) <- node;
      st.pending_count <- st.pending_count + 1;
      let sid = st.workload.Workload.assign idx in
      st.pending_per.(sid) <- st.pending_per.(sid) + 1;
      w.status <- Pending;
      w.suspended <- node;
      w.sid <- sid;
      w.suspend_time <- st.time;
      w.park_depth <- d;
      w.seen_batches <- (match st.active.(sid) with Some _ -> 1 | None -> 0);
      Obs.Recorder.emit_status st.rc ~worker:w.id ~time:st.time Obs.Recorder.Pending;
      Obs.Probe.submit st.obs ~time:st.time ~worker:w.id ~sid ~token:(-1);
      if st.tracing then
        st.trace <- Trace.Suspended { time = st.time; worker = w.id; node; sid } :: st.trace
  | _ ->
      enable_successors st w ~slot node ~d;
      if node = inst.dag.Dag.sink then
        if slot > 0 then complete_batch st ~finisher:w.id ~d (slot - 1)
        else begin
          st.finished <- true;
          st.span_realized <- d
        end

let exec_unit st w =
  let task = w.assigned in
  assert (task >= 0);
  attribute st task 1;
  if st.recording then note st w (class_of_task st task) 1;
  st.units_this_step <- st.units_this_step + 1;
  w.remaining <- w.remaining - 1;
  if w.remaining = 0 then complete st w task

(* Run [task], just taken off one of the deques. *)
let take st w task =
  count_queued st task (-1);
  assign st w task;
  exec_unit st w

(* The batch dag for the BOP cost tree [raw]: setup ; BOP ; cleanup,
   built once per distinct tree in a run. Reuse is exact: Dag.t is
   immutable and every per-batch counter lives in the [inst] that
   [launch] makes, and building from an equal tree would number the
   nodes and order the successors the same way. *)
let batch_shape st raw =
  match Hashtbl.find_opt st.shapes raw with
  | Some s -> s
  | None ->
      let cfg = st.cfg in
      let bop = if cfg.sequential_batches then Par.leaf (Par.work raw) else raw in
      let b = Dag.Build.create () in
      let pre =
        match cfg.overhead with
        | Tree_setup | Fused_setup -> [ Dag.Build.of_par b st.stage ]
        | No_setup -> []
      in
      let lo = Dag.Build.node_count b in
      let bop_f = Dag.Build.of_par b bop in
      let hi = Dag.Build.node_count b in
      let post =
        match cfg.overhead with
        | Tree_setup -> [ Dag.Build.of_par b st.stage ]
        | Fused_setup | No_setup -> []
      in
      let whole = Dag.Build.in_series b (pre @ [ bop_f ] @ post) in
      let s =
        { s_dag = Dag.Build.finish b whole; s_lo = lo; s_hi = hi;
          s_work = Par.work bop; s_span = Par.span bop;
          s_insts = Array.make (Array.length st.insts) None }
      in
      Hashtbl.add st.shapes raw s;
      s

(* Launch a batch of the snapshot [members]. *)
let launch st w =
  let cfg = st.cfg in
  let sid = w.sid in
  let members = ref [] in
  let count = ref 0 in
  Array.iter
    (fun v ->
      if v.status = Pending && !count < cfg.batch_cap && v.sid = sid then begin
        members := v.id :: !members;
        incr count
      end)
    st.workers;
  let members = Array.of_list (List.rev !members) in
  let ops =
    Array.map
      (fun m ->
        match st.insts.(0).dag.Dag.kinds.(st.pending.(m)) with
        | Dag.Ds idx -> idx
        | Dag.Core -> assert false)
      members
  in
  (* Called on every launch even when the shape is known: it advances
     the model's size. *)
  let shape =
    batch_shape st (st.workload.Workload.models.(sid).Batched.Model.batch_cost ops)
  in
  st.batch_details <-
    {
      Metrics.bd_sid = sid;
      bd_size = Array.length members;
      bd_work = shape.s_work;
      bd_span = shape.s_span;
    }
    :: st.batch_details;
  let dag = shape.s_dag in
  let slot = sid + 1 in
  (* The slot's previous batch has finished (Invariant 1), so the inst
     it last ran this shape with is free: its counters are reset in
     place. *)
  let inst =
    match shape.s_insts.(slot) with
    | Some inst ->
        (* A loop, not Array.blit, which writes an old array through
           caml_modify. *)
        let pred_count = dag.Dag.pred_count in
        for v = 0 to Array.length pred_count - 1 do
          inst.preds_left.(v) <- pred_count.(v);
          inst.depth.(v) <- 0
        done;
        inst
    | None ->
        let inst = make_inst ~bop_lo:shape.s_lo ~bop_hi:shape.s_hi dag in
        shape.s_insts.(slot) <- Some inst;
        inst
  in
  st.insts.(slot) <- inst;
  (* Batch-coupling edge of the realized critical path: the batch dag's
     source inherits the deepest member operation's park depth. *)
  Array.iter
    (fun m ->
      let pd = st.workers.(m).park_depth in
      if pd > inst.depth.(dag.Dag.source) then inst.depth.(dag.Dag.source) <- pd)
    members;
  if st.tracing then
    st.trace <- Trace.Launched { time = st.time; worker = w.id; sid; members } :: st.trace;
  Obs.Probe.launch st.obs ~time:st.time ~worker:w.id ~sid
    ~size:(Array.length members) ~setup:st.setup_charge ~cap:cfg.batch_cap;
  st.active.(sid) <- Some members;
  st.active_count <- st.active_count + 1;
  st.batches <- st.batches + 1;
  st.batch_size_total <- st.batch_size_total + Array.length members;
  if Array.length members > st.max_batch_size then
    st.max_batch_size <- Array.length members;
  Array.iter
    (fun m ->
      st.workers.(m).status <- Executing;
      Obs.Recorder.emit_status st.rc ~worker:m ~time:st.time Obs.Recorder.Executing)
    members;
  (* Every trapped worker with an outstanding operation on THIS structure
     observes one more batch execution (per-structure Lemma 2). *)
  Array.iter
    (fun v ->
      if (v.status = Pending || v.status = Executing) && v.sid = sid then
        v.seen_batches <- v.seen_batches + 1)
    st.workers;
  st.force_launch <- false;
  (* The launching worker starts on LAUNCHBATCH's root immediately. *)
  assign st w (task st ~slot dag.Dag.source);
  exec_unit st w

let resume st w =
  let node = w.suspended in
  assert (node >= 0);
  if st.tracing then
    st.trace <- Trace.Resumed { time = st.time; worker = w.id; node } :: st.trace;
  (* The resume step stands in for the launch and finish stamps, so
     the op's Op_done latency runs from issue to resume (DESIGN.md
     §7). Only Health and Reqtrace read the wait/exec split, and
     [run] rejects both. *)
  Obs.Probe.complete st.obs ~time:st.time ~worker:w.id ~sid:w.sid ~token:(-1)
    ~issue:w.suspend_time ~launch:st.time ~finish:st.time ~seen:w.seen_batches
    ~batch_worker:w.id;
  if st.recording then
    Obs.Recorder.emit_status st.rc ~worker:w.id ~time:st.time Obs.Recorder.Free;
  w.status <- Free;
  w.suspended <- -1;
  w.sid <- -1;
  enable_successors st w ~slot:0 node ~d:w.resume_depth;
  (* [enable_successors] assigned a core successor if one became
     ready; a ds node cannot be the core sink by construction. *)
  if node = st.insts.(0).dag.Dag.sink then
    failwith "Batcher sim: data-structure node is the core sink";
  if w.assigned >= 0 then exec_unit st w
  else note st w Obs.Recorder.Wsched 1

(* A uniformly random other worker's id, or -1 when there is none. *)
let victim st w =
  let p = st.cfg.p in
  if p <= 1 then -1 else (w.id + 1 + Util.Rng.int w.rng (p - 1)) mod p

(* Which deque a free thief's next attempt targets (true = batch). *)
let free_target st w =
  let k = w.steal_count in
  w.steal_count <- k + 1;
  match st.cfg.steal_policy with
  | Alternating -> k land 1 = 1
  | Core_only -> false
  | Batch_only -> true
  | Uniform_random -> Util.Rng.bool w.rng

let count_steals st w n =
  st.steal_attempts <- st.steal_attempts + n;
  if w.status = Free then st.free_steal_attempts <- st.free_steal_attempts + n
  else st.trapped_steal_attempts <- st.trapped_steal_attempts + n

let emit_steal st w ~time ~victim ~success ~batch_deque =
  if st.recording then
    Obs.Recorder.emit_steal st.rc ~worker:w.id ~time ~victim ~success ~batch_deque

let steal_attempt st w ~target_batch =
  (* A steal step is not part of any work run; close the run at its
     true end (the previous step) so Work segments stay non-overlapping. *)
  if st.recording then flush_run st w ~time:(st.time - 1);
  count_steals st w 1;
  let v = victim st w in
  let task =
    if v < 0 then -1
    else
      let v = st.workers.(v) in
      Deque.steal_top (if target_batch then v.batch_dq else v.core_dq)
  in
  if task < 0 then
    emit_steal st w ~time:st.time ~victim:v ~success:false ~batch_deque:target_batch
  else begin
    st.steal_successes <- st.steal_successes + 1;
    emit_steal st w ~time:st.time ~victim:v ~success:true ~batch_deque:target_batch;
    take st w task
  end

let acquire_free st w =
  let core_empty = Deque.is_empty w.core_dq in
  let batch_empty = Deque.is_empty w.batch_dq in
  if st.cfg.check_invariants && (not core_empty) && not batch_empty then
    failwith "Batcher sim: Invariant 4 violated (both deques nonempty)";
  let task = Deque.pop_bottom (if core_empty then w.batch_dq else w.core_dq) in
  if task >= 0 then take st w task
  else steal_attempt st w ~target_batch:(free_target st w)

(* A pending worker whose structure has no batch in flight launches one
   when enough operations are parked (or the livelock escape fired). *)
let launchable st w =
  w.status = Pending
  && Option.is_none st.active.(w.sid)
  && (st.pending_per.(w.sid) >= st.cfg.launch_threshold || st.force_launch)

let acquire_trapped st w =
  let task = Deque.pop_bottom w.batch_dq in
  if task >= 0 then take st w task
  else if w.status = Done then resume st w
  else if launchable st w then launch st w
  else steal_attempt st w ~target_batch:true

let step_worker st w =
  if w.assigned >= 0 then exec_unit st w
  else if w.status = Free then acquire_free st w
  else acquire_trapped st w

(* Quiet windows (DESIGN.md §17). The next [k] steps are quiet when
   every assigned worker has [remaining > k], so none completes a node,
   and every other worker's step is a steal attempt sure to fail: a free
   thief's when all deques are empty, a trapped thief's when all batch
   deques are empty and it can neither resume ([Done]) nor launch. Such
   steps change no deque, status, batch or dag state, so their outcomes
   are fixed in advance. [quiet_window] returns the largest such [k]
   (0 if there is none), stopping at the first worker that rules a
   window out; a window needs an assigned worker, which also keeps
   every step of it off the livelock escape's idle count. *)
let rec quiet_scan st i k =
  let workers = st.workers in
  if i = Array.length workers then if k = max_int then 0 else k
  else
    let w = workers.(i) in
    if w.assigned >= 0 then
      if w.remaining <= 1 then 0 else quiet_scan st (i + 1) (Int.min k (w.remaining - 1))
    else
      let fails =
        match w.status with
        | Free -> st.core_queued = 0 && st.batch_queued = 0
        | Pending -> st.batch_queued = 0 && not (launchable st w)
        | Executing -> st.batch_queued = 0
        | Done -> false
      in
      if fails then quiet_scan st (i + 1) k else 0

let quiet_window st = Int.min (quiet_scan st 0 max_int) (st.cfg.max_steps - st.time)

(* Advance a quiet window of [k] steps at once. Busy workers take [k]
   units of their node; thieves apply what [k] failed attempts change:
   steal counters and RNG draws ([free_target]'s, then [victim]'s, per
   attempt, as [acquire_free] draws them). Without a recorder the draws
   are skipped in bulk; with one, the attempts are replayed, since each
   Steal event carries its victim, after the closing flush of the
   thief's work run. *)
let advance st k =
  let t0 = st.time in
  st.time <- t0 + 1;
  let workers = st.workers in
  for j = 0 to Array.length workers - 1 do
    let w = workers.(j) in
    let task = w.assigned in
    if task >= 0 then begin
      attribute st task k;
      if st.recording then note st w (class_of_task st task) k;
      w.remaining <- w.remaining - k
    end
    else begin
      count_steals st w k;
      let free = w.status = Free in
      if st.recording then begin
        flush_run st w ~time:t0;
        for i = 1 to k do
          let target_batch = if free then free_target st w else true in
          let v = victim st w in
          emit_steal st w ~time:(t0 + i) ~victim:v ~success:false ~batch_deque:target_batch
        done
      end
      else begin
        (* A window has an assigned worker, so a thief in it has a
           victim to draw (p > 1): one draw per attempt in [victim],
           and a free thief's one more in [free_target] under
           Uniform_random. *)
        let draws = 1 + Bool.to_int (free && st.cfg.steal_policy = Uniform_random) in
        if free then w.steal_count <- w.steal_count + k;
        Util.Rng.skip w.rng (k * draws)
      end
    end
  done;
  st.time <- t0 + k

let run_internal ~tracing ~probe cfg workload =
  if cfg.p < 1 then invalid_arg "Batcher.run: p >= 1";
  if cfg.batch_cap < 1 then invalid_arg "Batcher.run: batch_cap >= 1";
  let recorder = Obs.Probe.recorder probe in
  if
    Obs.Recorder.enabled recorder
    && (Obs.Recorder.clock recorder <> Obs.Recorder.Timesteps
       || Obs.Recorder.workers recorder < cfg.p)
  then
    invalid_arg "Batcher.run: recorder must use the Timesteps clock and cover p workers";
  (* Both compare stamps with the monotonic clock (stall watchdog,
     span timing), so timestep stamps would read as an instant stall. *)
  if
    Obs.Health.enabled (Obs.Probe.health probe)
    || Obs.Reqtrace.enabled (Obs.Probe.reqtrace probe)
  then invalid_arg "Batcher.run: Health and Reqtrace attach to the runtime only";
  Workload.reset_models workload;
  let core_inst = make_inst workload.Workload.core in
  let n_structs = Array.length workload.Workload.models in
  let slot_bits =
    let rec bits b = if 1 lsl b > n_structs then b else bits (b + 1) in
    bits 0
  in
  let workers =
    Array.init cfg.p (fun id ->
        {
          id;
          core_dq = Deque.create ();
          batch_dq = Deque.create ();
          status = Free;
          assigned = -1;
          remaining = 0;
          steal_count = 0;
          suspended = -1;
          sid = -1;
          seen_batches = 0;
          suspend_time = 0;
          park_depth = 0;
          resume_depth = 0;
          wcls = Obs.Recorder.Wsched;
          wrun = 0;
          rng = Util.Rng.stream ~seed:cfg.seed ~index:id;
        })
  in
  (* LAUNCHBATCH's setup and cleanup stages model its parallel-for over
     the pending array and the working-set compaction: Θ(p) work, Θ(lg p)
     span — or a sequential Θ(p) scan in flat-combining mode. *)
  let stage =
    if cfg.sequential_batches then Par.leaf cfg.p
    else Par.balanced ~leaf_cost:(fun _ -> 1) cfg.p
  in
  let st =
    {
      cfg;
      workload;
      (* A batch slot holds the core dag until its structure's first
         launch; no task names the slot before then. *)
      insts = Array.make (n_structs + 1) core_inst;
      slot_bits;
      slot_mask = (1 lsl slot_bits) - 1;
      workers;
      stage;
      (* The setup cost actually charged by the dag: the balanced tree's
         internal nodes count too, so this is Par.work, not p. *)
      setup_charge =
        (match cfg.overhead with
        | Tree_setup -> 2 * Par.work stage
        | Fused_setup -> Par.work stage
        | No_setup -> 0);
      shapes = Hashtbl.create 16;
      core_queued = 0;
      batch_queued = 0;
      pending = Array.make cfg.p (-1);
      pending_count = 0;
      pending_per = Array.make n_structs 0;
      active = Array.make n_structs None;
      active_count = 0;
      finished = false;
      force_launch = false;
      units_this_step = 0;
      time = 0;
      core_work = 0;
      batch_work = 0;
      setup_work = 0;
      batches = 0;
      batch_size_total = 0;
      max_batch_size = 0;
      steal_attempts = 0;
      steal_successes = 0;
      free_steal_attempts = 0;
      trapped_steal_attempts = 0;
      max_seen_batches = 0;
      span_realized = 0;
      batch_details = [];
      tracing;
      trace = [];
      obs = probe;
      rc = recorder;
      recording = Obs.Recorder.enabled recorder;
    }
  in
  assign st workers.(0) (task st ~slot:0 core_inst.dag.Dag.source);
  let idle_sweeps = ref 0 in
  while not st.finished do
    let k = quiet_window st in
    if k > 0 then begin
      advance st k;
      idle_sweeps := 0
    end
    else begin
      st.time <- st.time + 1;
      if st.time > cfg.max_steps then failwith "Batcher sim: max_steps exceeded";
      st.units_this_step <- 0;
      for i = 0 to cfg.p - 1 do
        step_worker st workers.(i)
      done;
      (* Livelock escape for the accumulate-k launch ablation: if nothing
         executed for two sweeps while ops are parked, force a launch even
         below the threshold. Never triggers with the default threshold 1. *)
      if st.units_this_step = 0 && st.active_count = 0 && st.pending_count > 0
      then begin
        incr idle_sweeps;
        if !idle_sweeps >= 2 then st.force_launch <- true
      end
      else idle_sweeps := 0
    end
  done;
  Array.iter (fun w -> flush_run st w ~time:st.time) workers;
  {
    Metrics.p = cfg.p;
    makespan = st.time;
    core_work = st.core_work;
    batch_work = st.batch_work;
    setup_work = st.setup_work;
    batches = st.batches;
    batch_size_total = st.batch_size_total;
    max_batch_size = st.max_batch_size;
    steal_attempts = st.steal_attempts;
    steal_successes = st.steal_successes;
    free_steal_attempts = st.free_steal_attempts;
    trapped_steal_attempts = st.trapped_steal_attempts;
    max_batches_while_pending = st.max_seen_batches;
    span_realized = st.span_realized;
    total_records = Workload.total_records workload;
    batch_details = st.batch_details;
  },
  List.rev st.trace

let run ?(probe = Obs.Probe.null) cfg workload =
  fst (run_internal ~tracing:false ~probe cfg workload)

let run_traced ?(probe = Obs.Probe.null) cfg workload =
  run_internal ~tracing:true ~probe cfg workload
