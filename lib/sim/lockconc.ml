type config = {
  p : int;
  seed : int;
  max_steps : int;
  contention : bool;
}

let default ~p = { p; seed = 1; max_steps = 2_000_000_000; contention = false }

type entry = {
  owner : int;
  mutable remaining : int;
  mutable scaled : bool;  (* contention multiplier applied *)
}

type worker = {
  id : int;
  dq : Deque.t;
  mutable assigned : int option;
  mutable remaining : int;
  mutable blocked_on : int option;  (* ds node waiting for / holding lock *)
  rng : Util.Rng.t;
}

type state = {
  cfg : config;
  w : Workload.t;
  preds_left : int array;
  workers : worker array;
  lock_queue : entry Queue.t;
  mutable lock_served_this_step : bool;
      (* at most one service unit per timestep: the lock is held for the
         operation's full duration in wall-clock (timestep) terms *)
  mutable finished : bool;
  mutable time : int;
  mutable core_work : int;
  mutable service_work : int;
  mutable wait_steps : int;
  mutable steal_attempts : int;
  mutable steal_successes : int;
}

let dag st = st.w.Workload.core

let assign st w node =
  w.assigned <- Some node;
  w.remaining <- (dag st).Dag.costs.(node)

let enable st w node =
  let newly = ref [] in
  Array.iter
    (fun s ->
      st.preds_left.(s) <- st.preds_left.(s) - 1;
      if st.preds_left.(s) = 0 then newly := s :: !newly)
    (dag st).Dag.succs.(node);
  (match List.rev !newly with
  | [] -> ()
  | first :: rest ->
      assign st w first;
      List.iter (fun s -> Deque.push_bottom w.dq s) rest);
  if node = (dag st).Dag.sink then st.finished <- true

let complete st w node =
  w.assigned <- None;
  match (dag st).Dag.kinds.(node) with
  | Dag.Ds idx ->
      (* Join the lock queue for the op's sequential service time. *)
      let m = st.w.Workload.models.(st.w.Workload.assign idx) in
      let service = m.Batched.Model.seq_cost idx in
      Queue.add { owner = w.id; remaining = max 1 service; scaled = false } st.lock_queue;
      w.blocked_on <- Some node
  | Dag.Core -> enable st w node

let exec_unit st w =
  match w.assigned with
  | None -> assert false
  | Some node ->
      st.core_work <- st.core_work + 1;
      w.remaining <- w.remaining - 1;
      if w.remaining = 0 then complete st w node

let step st w =
  match w.blocked_on with
  | Some node -> begin
      (* Only the lock holder (queue head) makes progress. *)
      match Queue.peek_opt st.lock_queue with
      | Some e when e.owner = w.id && not st.lock_served_this_step ->
          if st.cfg.contention && not e.scaled then begin
            (* Every contending processor slows the holder down: CAS
               retries / cache-line bouncing. *)
            e.remaining <- e.remaining * Queue.length st.lock_queue;
            e.scaled <- true
          end;
          st.lock_served_this_step <- true;
          st.service_work <- st.service_work + 1;
          e.remaining <- e.remaining - 1;
          if e.remaining = 0 then begin
            ignore (Queue.pop st.lock_queue);
            w.blocked_on <- None;
            enable st w node
          end
      | _ -> st.wait_steps <- st.wait_steps + 1
    end
  | None -> begin
      match w.assigned with
      | Some _ -> exec_unit st w
      | None -> begin
          let node = Deque.pop_bottom w.dq in
          if node >= 0 then begin
            assign st w node;
            exec_unit st w
          end
          else begin
            st.steal_attempts <- st.steal_attempts + 1;
            if st.cfg.p > 1 then begin
              let offset = 1 + Util.Rng.int w.rng (st.cfg.p - 1) in
              let v = st.workers.((w.id + offset) mod st.cfg.p) in
              let node = Deque.steal_top v.dq in
              if node >= 0 then begin
                st.steal_successes <- st.steal_successes + 1;
                assign st w node;
                exec_unit st w
              end
            end
          end
        end
    end

let run cfg (w : Workload.t) =
  Workload.reset_models w;
  let workers =
    Array.init cfg.p (fun id ->
        {
          id;
          dq = Deque.create ();
          assigned = None;
          remaining = 0;
          blocked_on = None;
          rng = Util.Rng.stream ~seed:cfg.seed ~index:id;
        })
  in
  let st =
    {
      cfg;
      w;
      preds_left = Array.copy w.Workload.core.Dag.pred_count;
      workers;
      lock_queue = Queue.create ();
      lock_served_this_step = false;
      finished = false;
      time = 0;
      core_work = 0;
      service_work = 0;
      wait_steps = 0;
      steal_attempts = 0;
      steal_successes = 0;
    }
  in
  assign st workers.(0) w.Workload.core.Dag.source;
  while not st.finished do
    st.time <- st.time + 1;
    if st.time > cfg.max_steps then failwith "Lockconc sim: max_steps exceeded";
    st.lock_served_this_step <- false;
    Array.iter (fun wk -> step st wk) workers
  done;
  {
    (Metrics.zero ~p:cfg.p) with
    Metrics.makespan = st.time;
    core_work = st.core_work;
    batch_work = st.service_work;
    steal_attempts = st.steal_attempts;
    steal_successes = st.steal_successes;
    trapped_steal_attempts = st.wait_steps;
    total_records = Workload.total_records w;
  }
