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

type origin = OCore | OBatch

type inst = {
  dag : Dag.t;
  origin : origin;
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
  sid : int;  (* structure index of a batch dag; -1 for the core dag *)
}

type task = { inst : inst; node : int }

type wstatus = Free | Pending | Executing | Done

type worker = {
  id : int;
  core_dq : task Deque.t;
  batch_dq : task Deque.t;
  mutable status : wstatus;
  mutable assigned : task option;
  mutable remaining : int;
  mutable steal_count : int;
  mutable suspended : int option;  (* core-dag ds node awaiting its batch *)
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

type batch = {
  b_sid : int;  (* which structure this batch belongs to *)
  members : int array;  (* worker ids whose ops are in the working set *)
}

(* The batch dag built for one BOP cost tree: setup ; BOP ; cleanup. *)
type shape = {
  s_dag : Dag.t;
  s_lo : int;  (* BOP node-id range, as [inst.bop_lo]/[bop_hi] *)
  s_hi : int;
  s_work : int;  (* Par work and span of the BOP *)
  s_span : int;
}

type state = {
  cfg : config;
  workload : Workload.t;
  core_inst : inst;
  workers : worker array;
  stage : Par.t;  (* one LAUNCHBATCH setup or cleanup stage *)
  setup_charge : int;  (* setup work a batch reports: the stages' Par work *)
  shapes : (Par.t, shape) Hashtbl.t;  (* batch dags built so far, by BOP tree *)
  mutable core_queued : int;  (* tasks in all core deques *)
  mutable batch_queued : int;  (* tasks in all batch deques *)
  pending : int option array;  (* per worker: suspended core ds node id *)
  mutable pending_count : int;  (* parked operations, all structures *)
  pending_per : int array;  (* parked operations per structure *)
  active : batch option array;  (* in-flight batch per structure (Inv. 1) *)
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

let make_inst ?(bop_lo = 0) ?(bop_hi = 0) ?(sid = -1) ~origin dag =
  {
    dag;
    origin;
    preds_left = Array.copy dag.Dag.pred_count;
    depth = Array.make (Array.length dag.Dag.pred_count) 0;
    bop_lo;
    bop_hi;
    sid;
  }

(* Structure index of a core-dag ds node. *)
let struct_of st node =
  match st.core_inst.dag.Dag.kinds.(node) with
  | Dag.Ds idx -> st.workload.Workload.assign idx
  | Dag.Core -> assert false

let attribute st (task : task) units =
  match task.inst.origin with
  | OCore -> st.core_work <- st.core_work + units
  | OBatch ->
      if task.node >= task.inst.bop_lo && task.node < task.inst.bop_hi then
        st.batch_work <- st.batch_work + units
      else st.setup_work <- st.setup_work + units

let class_of_task (task : task) =
  match task.inst.origin with
  | OCore -> Obs.Recorder.Wcore
  | OBatch ->
      if task.node >= task.inst.bop_lo && task.node < task.inst.bop_hi then
        Obs.Recorder.Wbatch
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

let assign w (task : task) =
  w.assigned <- Some task;
  w.remaining <- task.inst.dag.Dag.costs.(task.node)

(* Pushes here and [take] keep the [core_queued]/[batch_queued] totals
   that the quiet-window scan reads. *)
let count_queued st (task : task) delta =
  match task.inst.origin with
  | OCore -> st.core_queued <- st.core_queued + delta
  | OBatch -> st.batch_queued <- st.batch_queued + delta

let push st w (task : task) =
  Deque.push_bottom
    (match task.inst.origin with OCore -> w.core_dq | OBatch -> w.batch_dq)
    task;
  count_queued st task 1

(* Enable [task]'s successors after its completion: newly ready nodes are
   assigned to the completing worker (first) and pushed on the deque
   matching the dag's origin (rest). [d] is the completed node's
   critical-path depth, propagated along every outgoing edge. *)
let enable_successors st w (task : task) ~d =
  let inst = task.inst in
  let newly = ref [] in
  Array.iter
    (fun s ->
      inst.preds_left.(s) <- inst.preds_left.(s) - 1;
      if d > inst.depth.(s) then inst.depth.(s) <- d;
      if inst.preds_left.(s) = 0 then newly := s :: !newly)
    inst.dag.Dag.succs.(task.node);
  (match List.rev !newly with
  | [] -> ()
  | first :: rest ->
      assign w { inst; node = first };
      List.iter (fun s -> push st w { inst; node = s }) rest)

let complete_batch st ~finisher ~d sid =
  match st.active.(sid) with
  | None -> assert false
  | Some b ->
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
          st.pending.(m) <- None;
          st.pending_count <- st.pending_count - 1;
          st.pending_per.(sid) <- st.pending_per.(sid) - 1)
        b.members;
      Obs.Probe.finish st.obs ~time:st.time ~worker:finisher ~sid
        ~size:(Array.length b.members);
      if st.tracing then
        st.trace <-
          Trace.Batch_completed { time = st.time; sid; members = b.members } :: st.trace;
      st.active.(sid) <- None;
      st.active_count <- st.active_count - 1

let complete st w (task : task) =
  w.assigned <- None;
  let inst = task.inst in
  (* Completion depth: chain units up to and including this node, clamped
     by elapsed steps (two dependent units can execute in one sweep when
     the successor's worker steps later in worker order; the clamp keeps
     the realized span a valid lower bound on the makespan). *)
  let d = min (inst.depth.(task.node) + inst.dag.Dag.costs.(task.node)) st.time in
  match inst.dag.Dag.kinds.(task.node), inst.origin with
  | Dag.Ds _, OCore ->
      (* The operation record is parked; control does not pass the node
         until its batch completes (the worker is now trapped). *)
      if st.cfg.check_invariants && st.pending.(w.id) <> None then
        failwith "Batcher sim: worker already has a pending op";
      st.pending.(w.id) <- Some task.node;
      st.pending_count <- st.pending_count + 1;
      let sid = struct_of st task.node in
      st.pending_per.(sid) <- st.pending_per.(sid) + 1;
      w.status <- Pending;
      w.suspended <- Some task.node;
      w.suspend_time <- st.time;
      w.park_depth <- d;
      w.seen_batches <- (match st.active.(sid) with Some _ -> 1 | None -> 0);
      Obs.Recorder.emit_status st.rc ~worker:w.id ~time:st.time Obs.Recorder.Pending;
      Obs.Probe.submit st.obs ~time:st.time ~worker:w.id ~sid ~token:(-1);
      if st.tracing then
        st.trace <-
          Trace.Suspended { time = st.time; worker = w.id; node = task.node; sid }
          :: st.trace
  | _ ->
      enable_successors st w task ~d;
      if task.node = inst.dag.Dag.sink then begin
        match inst.origin with
        | OBatch -> complete_batch st ~finisher:w.id ~d inst.sid
        | OCore ->
            st.finished <- true;
            st.span_realized <- d
      end

let exec_unit st w =
  match w.assigned with
  | None -> assert false
  | Some task ->
      attribute st task 1;
      note st w (class_of_task task) 1;
      st.units_this_step <- st.units_this_step + 1;
      w.remaining <- w.remaining - 1;
      if w.remaining = 0 then complete st w task

(* Run [task], just taken off one of the deques. *)
let take st w (task : task) =
  count_queued st task (-1);
  assign w task;
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
          s_work = Par.work bop; s_span = Par.span bop }
      in
      Hashtbl.add st.shapes raw s;
      s

(* Launch a batch of the snapshot [members]. *)
let launch st w =
  let cfg = st.cfg in
  let sid =
    match w.suspended with
    | Some node -> struct_of st node
    | None -> assert false
  in
  let members = ref [] in
  let count = ref 0 in
  Array.iter
    (fun v ->
      if
        v.status = Pending
        && !count < cfg.batch_cap
        && (match v.suspended with
           | Some node -> struct_of st node = sid
           | None -> false)
      then begin
        members := v.id :: !members;
        incr count
      end)
    st.workers;
  let members = Array.of_list (List.rev !members) in
  let ops =
    Array.map
      (fun m ->
        match st.pending.(m) with
        | Some node -> begin
            match st.core_inst.dag.Dag.kinds.(node) with
            | Dag.Ds idx -> idx
            | Dag.Core -> assert false
          end
        | None -> assert false)
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
  let inst = make_inst ~origin:OBatch ~bop_lo:shape.s_lo ~bop_hi:shape.s_hi ~sid dag in
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
  st.active.(sid) <- Some { b_sid = sid; members };
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
      match v.status, v.suspended with
      | (Pending | Executing), Some node when struct_of st node = sid ->
          v.seen_batches <- v.seen_batches + 1
      | _ -> ())
    st.workers;
  st.force_launch <- false;
  (* The launching worker starts on LAUNCHBATCH's root immediately. *)
  assign w { inst; node = dag.Dag.source };
  exec_unit st w

let resume st w =
  (match w.suspended with
  | None -> assert false
  | Some node ->
      if st.tracing then
        st.trace <- Trace.Resumed { time = st.time; worker = w.id; node } :: st.trace;
      (* The resume step stands in for the launch and finish stamps, so
         the op's Op_done latency runs from issue to resume (DESIGN.md
         §7). Only Health and Reqtrace read the wait/exec split, and
         [run] rejects both. *)
      Obs.Probe.complete st.obs ~time:st.time ~worker:w.id
        ~sid:(struct_of st node) ~token:(-1) ~issue:w.suspend_time
        ~launch:st.time ~finish:st.time ~seen:w.seen_batches
        ~batch_worker:w.id;
      if st.recording then
        Obs.Recorder.emit_status st.rc ~worker:w.id ~time:st.time Obs.Recorder.Free;
      w.status <- Free;
      w.suspended <- None;
      enable_successors st w { inst = st.core_inst; node } ~d:w.resume_depth;
      (* [enable_successors] assigned a core successor if one became
         ready; a ds node cannot be the core sink by construction. *)
      if node = st.core_inst.dag.Dag.sink then
        failwith "Batcher sim: data-structure node is the core sink");
  if w.assigned <> None then exec_unit st w
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
  let stolen =
    if v < 0 then None
    else
      let v = st.workers.(v) in
      Deque.steal_top (if target_batch then v.batch_dq else v.core_dq)
  in
  match stolen with
  | None ->
      emit_steal st w ~time:st.time ~victim:v ~success:false ~batch_deque:target_batch
  | Some task ->
      st.steal_successes <- st.steal_successes + 1;
      emit_steal st w ~time:st.time ~victim:v ~success:true ~batch_deque:target_batch;
      take st w task

let acquire_free st w =
  let core_empty = Deque.is_empty w.core_dq in
  let batch_empty = Deque.is_empty w.batch_dq in
  if st.cfg.check_invariants && (not core_empty) && not batch_empty then
    failwith "Batcher sim: Invariant 4 violated (both deques nonempty)";
  match Deque.pop_bottom (if core_empty then w.batch_dq else w.core_dq) with
  | Some task -> take st w task
  | None -> steal_attempt st w ~target_batch:(free_target st w)

(* A pending worker whose structure has no batch in flight launches one
   when enough operations are parked (or the livelock escape fired). *)
let launchable st w =
  w.status = Pending
  &&
  match w.suspended with
  | Some node ->
      let sid = struct_of st node in
      st.active.(sid) = None
      && (st.pending_per.(sid) >= st.cfg.launch_threshold || st.force_launch)
  | None -> false

let acquire_trapped st w =
  match Deque.pop_bottom w.batch_dq with
  | Some task -> take st w task
  | None ->
      if w.status = Done then resume st w
      else if launchable st w then launch st w
      else steal_attempt st w ~target_batch:true

let step_worker st w =
  match w.assigned with
  | Some _ -> exec_unit st w
  | None -> if w.status = Free then acquire_free st w else acquire_trapped st w

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
let quiet_window st =
  let workers = st.workers in
  let rec scan i k =
    if i = Array.length workers then if k = max_int then 0 else k
    else
      let w = workers.(i) in
      match w.assigned with
      | Some _ ->
          if w.remaining <= 1 then 0 else scan (i + 1) (Int.min k (w.remaining - 1))
      | None ->
          let fails =
            match w.status with
            | Free -> st.core_queued = 0 && st.batch_queued = 0
            | Pending -> st.batch_queued = 0 && not (launchable st w)
            | Executing -> st.batch_queued = 0
            | Done -> false
          in
          if fails then scan (i + 1) k else 0
  in
  Int.min (scan 0 max_int) (st.cfg.max_steps - st.time)

(* Advance a quiet window of [k] steps at once. Busy workers take [k]
   units of their node; thieves replay what [k] failed attempts change:
   steal counters, RNG draws ([free_target]'s, then [victim]'s, per
   attempt, as [acquire_free] draws them), the closing flush of their
   work run and one Steal event per step. *)
let advance st k =
  let t0 = st.time in
  st.time <- t0 + 1;
  Array.iter
    (fun w ->
      match w.assigned with
      | Some task ->
          attribute st task k;
          note st w (class_of_task task) k;
          w.remaining <- w.remaining - k
      | None ->
          if st.recording then flush_run st w ~time:t0;
          count_steals st w k;
          let free = w.status = Free in
          for i = 1 to k do
            let target_batch = if free then free_target st w else true in
            let v = victim st w in
            emit_steal st w ~time:(t0 + i) ~victim:v ~success:false ~batch_deque:target_batch
          done)
    st.workers;
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
  let core_inst = make_inst ~origin:OCore workload.Workload.core in
  let n_structs = Array.length workload.Workload.models in
  let workers =
    Array.init cfg.p (fun id ->
        {
          id;
          core_dq = Deque.create ();
          batch_dq = Deque.create ();
          status = Free;
          assigned = None;
          remaining = 0;
          steal_count = 0;
          suspended = None;
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
      core_inst;
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
      pending = Array.make cfg.p None;
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
  assign workers.(0) { inst = core_inst; node = core_inst.dag.Dag.source };
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
      Array.iter (fun w -> step_worker st w) workers;
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
