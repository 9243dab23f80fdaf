type req = { at : int; shard : int; cls : int }

type config = { p : int; shards : int; batch_cap : int }

let config ?batch_cap ~p ~shards () =
  let batch_cap = match batch_cap with Some c -> c | None -> p in
  { p; shards; batch_cap }

type result = {
  waits : int array;
  launch_waits : int array;
  batches_seen : int array;
  makespan : int;
  batches : int;
  max_batch : int;
  total_work : int;
  batch_details : Metrics.batch_detail list;
  per_shard_ops : int array;
  per_shard_span_max : int array;
  max_batches_seen : int;
  max_in_system : int;
}

type inflight = {
  launched_at : int;
  done_at : int;
  members : int array;  (* request indices *)
}

type shard_state = {
  queue : int Queue.t;  (* request indices, FIFO *)
  mutable busy : inflight option;
  mutable launches : int;
}

let run cfg ~models reqs =
  if cfg.p < 1 then invalid_arg "Openloop.run: p >= 1";
  if cfg.shards < 1 then invalid_arg "Openloop.run: shards >= 1";
  if cfg.batch_cap < 1 then invalid_arg "Openloop.run: batch_cap >= 1";
  if Array.length models <> cfg.shards then
    invalid_arg "Openloop.run: one model per shard";
  Array.iter (fun m -> m.Batched.Model.reset ()) models;
  let n = Array.length reqs in
  Array.iter
    (fun r ->
      if r.shard < 0 || r.shard >= cfg.shards then
        invalid_arg "Openloop.run: request shard out of range";
      if r.at < 0 then invalid_arg "Openloop.run: negative arrival time")
    reqs;
  (* Arrival order; stable so same-instant requests keep input order
     (determinism — FIFO admission must not depend on sort internals). *)
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (fun i j -> Int.compare reqs.(i).at reqs.(j).at) order;
  let shards = Array.init cfg.shards (fun _ ->
      { queue = Queue.create (); busy = None; launches = 0 })
  in
  (* LAUNCHBATCH overhead: the paper's Θ(P)-work / Θ(lg P)-span setup
     and cleanup stages, identical to [Batcher]'s Tree_setup model. Each
     shard runs its batches on its share max(1, P/K) of the workers. *)
  let overhead = Par.balanced ~leaf_cost:(fun _ -> 1) cfg.p in
  let setup_work = 2 * Par.work overhead in
  let setup_span = 2 * Par.span overhead in
  let p_share = max 1 (cfg.p / cfg.shards) in
  let waits = Array.make n 0 in
  let launch_waits = Array.make n 0 in
  let batches_seen = Array.make n 0 in
  let launches_at_arrival = Array.make n 0 in
  let per_shard_ops = Array.make cfg.shards 0 in
  let per_shard_span_max = Array.make cfg.shards 0 in
  let batch_details = ref [] in
  let batches = ref 0 in
  let max_batch = ref 0 in
  let total_work = ref 0 in
  let max_seen = ref 0 in
  let in_system = ref 0 in
  let max_in_system = ref 0 in
  let makespan = ref 0 in
  let completed = ref 0 in
  let try_launch sid now =
    let s = shards.(sid) in
    if s.busy = None && not (Queue.is_empty s.queue) then begin
      let size = min cfg.batch_cap (Queue.length s.queue) in
      let members = Array.init size (fun _ -> Queue.pop s.queue) in
      let bop = models.(sid).Batched.Model.batch_cost members in
      let bop_work = Par.work bop and bop_span = Par.span bop in
      (* Brent bound of the wrapped batch DAG. *)
      let duration =
        ((setup_work + bop_work + p_share - 1) / p_share)
        + setup_span + bop_span
      in
      s.busy <- Some { launched_at = now; done_at = now + duration; members };
      s.launches <- s.launches + 1;
      incr batches;
      if size > !max_batch then max_batch := size;
      total_work := !total_work + setup_work + bop_work;
      per_shard_ops.(sid) <- per_shard_ops.(sid) + size;
      let s_i = bop_span + setup_span in
      if s_i > per_shard_span_max.(sid) then per_shard_span_max.(sid) <- s_i;
      batch_details :=
        { Metrics.bd_sid = sid; bd_size = size; bd_work = bop_work;
          bd_span = bop_span }
        :: !batch_details
    end
  in
  let complete sid =
    let s = shards.(sid) in
    match s.busy with
    | None -> assert false
    | Some b ->
        Array.iter
          (fun i ->
            waits.(i) <- b.done_at - reqs.(i).at;
            launch_waits.(i) <- b.launched_at - reqs.(i).at;
            let seen = s.launches - launches_at_arrival.(i) in
            batches_seen.(i) <- seen;
            if seen > !max_seen then max_seen := seen;
            decr in_system;
            incr completed)
          b.members;
        if b.done_at > !makespan then makespan := b.done_at;
        s.busy <- None;
        try_launch sid b.done_at
  in
  let next_arrival = ref 0 in
  while !completed < n do
    let t_arr =
      if !next_arrival < n then reqs.(order.(!next_arrival)).at else max_int
    in
    let t_done = ref max_int and done_sid = ref (-1) in
    Array.iteri
      (fun sid s ->
        match s.busy with
        | Some b when b.done_at < !t_done ->
            t_done := b.done_at;
            done_sid := sid
        | _ -> ())
      shards;
    (* Completions first at ties: a request arriving at the very instant
       a batch finishes sees a free shard, as in the real runtime where
       the finishing worker relaunches before new submitters re-check. *)
    if !t_done <= t_arr then complete !done_sid
    else begin
      let i = order.(!next_arrival) in
      incr next_arrival;
      let r = reqs.(i) in
      let s = shards.(r.shard) in
      (* A batch already in flight at arrival counts toward the
         request's batches-seen (Lemma 2 counts it: ≤ 2 means one
         in-flight plus one's own when the system keeps up). *)
      launches_at_arrival.(i) <-
        (s.launches - if s.busy <> None then 1 else 0);
      Queue.push i s.queue;
      incr in_system;
      if !in_system > !max_in_system then max_in_system := !in_system;
      try_launch r.shard r.at
    end
  done;
  {
    waits;
    launch_waits;
    batches_seen;
    makespan = !makespan;
    batches = !batches;
    max_batch = !max_batch;
    total_work = !total_work;
    batch_details = !batch_details;
    per_shard_ops;
    per_shard_span_max;
    max_batches_seen = !max_seen;
    max_in_system = !max_in_system;
  }
