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
  per_shard_ops : int array;
  per_shard_span_max : int array;
  max_batches_seen : int;
  max_in_system : int;
}

(* One shard's FIFO of waiting requests is a chain through the run's one
   [next] array (a request waits on one shard, once), so queueing
   allocates nothing. [members] is the batch in flight while [busy].
   [bop] is the last BOP tree the shard's model returned, with its work
   and span: a model that hands back the same tree is not walked again. *)
type shard_state = {
  mutable head : int;  (* first waiting request; valid when len > 0 *)
  mutable tail : int;  (* last waiting request; valid when len > 0 *)
  mutable len : int;
  mutable busy : bool;
  mutable launched_at : int;
  mutable done_at : int;
  mutable members : int array;  (* request indices *)
  mutable launches : int;
  mutable bop : Par.t;
  mutable bop_work : int;
  mutable bop_span : int;
}

let run cfg ~models ~at ~shard =
  if cfg.p < 1 then invalid_arg "Openloop.run: p >= 1";
  if cfg.shards < 1 then invalid_arg "Openloop.run: shards >= 1";
  if cfg.batch_cap < 1 then invalid_arg "Openloop.run: batch_cap >= 1";
  if Array.length models <> cfg.shards then
    invalid_arg "Openloop.run: one model per shard";
  let n = Array.length at in
  if Array.length shard <> n then
    invalid_arg "Openloop.run: one shard per arrival";
  Array.iter (fun m -> m.Batched.Model.reset ()) models;
  for i = 0 to n - 1 do
    if shard.(i) < 0 || shard.(i) >= cfg.shards then
      invalid_arg "Openloop.run: request shard out of range";
    if at.(i) < 0 then invalid_arg "Openloop.run: negative arrival time"
  done;
  (* Arrival order; stable so same-instant requests keep input order
     (determinism — FIFO admission must not depend on sort internals).
     A stream already in order, as Gen makes it, skips the sort. *)
  let order = Array.init n (fun i -> i) in
  let in_order = ref true in
  for i = 1 to n - 1 do
    if at.(i) < at.(i - 1) then in_order := false
  done;
  if not !in_order then
    Array.stable_sort (fun i j -> Int.compare at.(i) at.(j)) order;
  let shards =
    Array.init cfg.shards (fun _ ->
        {
          head = 0;
          tail = 0;
          len = 0;
          busy = false;
          launched_at = 0;
          done_at = 0;
          members = [||];
          launches = 0;
          bop = Par.leaf 1;
          bop_work = 1;
          bop_span = 1;
        })
  in
  let next = Array.make n 0 in
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
    if (not s.busy) && s.len > 0 then begin
      let size = min cfg.batch_cap s.len in
      let members = Array.make size 0 in
      for k = 0 to size - 1 do
        members.(k) <- s.head;
        s.head <- next.(s.head)
      done;
      s.len <- s.len - size;
      let bop = models.(sid).Batched.Model.batch_cost members in
      if bop != s.bop then begin
        s.bop <- bop;
        s.bop_work <- Par.work bop;
        s.bop_span <- Par.span bop
      end;
      let bop_work = s.bop_work and bop_span = s.bop_span in
      (* Brent bound of the wrapped batch DAG. *)
      let duration =
        ((setup_work + bop_work + p_share - 1) / p_share)
        + setup_span + bop_span
      in
      s.busy <- true;
      s.launched_at <- now;
      s.done_at <- now + duration;
      s.members <- members;
      s.launches <- s.launches + 1;
      incr batches;
      if size > !max_batch then max_batch := size;
      total_work := !total_work + setup_work + bop_work;
      per_shard_ops.(sid) <- per_shard_ops.(sid) + size;
      let s_i = bop_span + setup_span in
      if s_i > per_shard_span_max.(sid) then per_shard_span_max.(sid) <- s_i
    end
  in
  let complete sid =
    let s = shards.(sid) in
    assert s.busy;
    for k = 0 to Array.length s.members - 1 do
      let i = s.members.(k) in
      waits.(i) <- s.done_at - at.(i);
      launch_waits.(i) <- s.launched_at - at.(i);
      let seen = s.launches - launches_at_arrival.(i) in
      batches_seen.(i) <- seen;
      if seen > !max_seen then max_seen := seen;
      decr in_system;
      incr completed
    done;
    if s.done_at > !makespan then makespan := s.done_at;
    s.busy <- false;
    try_launch sid s.done_at
  in
  let next_arrival = ref 0 in
  while !completed < n do
    let t_arr =
      if !next_arrival < n then at.(order.(!next_arrival)) else max_int
    in
    let t_done = ref max_int and done_sid = ref (-1) in
    for sid = 0 to cfg.shards - 1 do
      let s = shards.(sid) in
      if s.busy && s.done_at < !t_done then begin
        t_done := s.done_at;
        done_sid := sid
      end
    done;
    (* Completions first at ties: a request arriving at the very instant
       a batch finishes sees a free shard, as in the real runtime where
       the finishing worker relaunches before new submitters re-check. *)
    if !t_done <= t_arr then complete !done_sid
    else begin
      let i = order.(!next_arrival) in
      incr next_arrival;
      let sid = shard.(i) in
      let s = shards.(sid) in
      (* A batch already in flight at arrival counts toward the
         request's batches-seen (Lemma 2 counts it: ≤ 2 means one
         in-flight plus one's own when the system keeps up). *)
      launches_at_arrival.(i) <- (s.launches - if s.busy then 1 else 0);
      if s.len = 0 then s.head <- i else next.(s.tail) <- i;
      s.tail <- i;
      s.len <- s.len + 1;
      incr in_system;
      if !in_system > !max_in_system then max_in_system := !in_system;
      try_launch sid at.(i)
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
    per_shard_ops;
    per_shard_span_max;
    max_batches_seen = !max_seen;
    max_in_system = !max_in_system;
  }
