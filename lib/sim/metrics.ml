type t = {
  p : int;
  makespan : int;
  core_work : int;
  batch_work : int;
  setup_work : int;
  batches : int;
  batch_size_total : int;
  max_batch_size : int;
  steal_attempts : int;
  steal_successes : int;
  free_steal_attempts : int;
  trapped_steal_attempts : int;
  max_batches_while_pending : int;
  span_realized : int;
  total_records : int;
  batch_details : batch_detail list;
}

and batch_detail = {
  bd_sid : int;
  bd_size : int;
  bd_work : int;
  bd_span : int;
}

let trimmed_span ~tau t =
  List.fold_left
    (fun acc d -> if d.bd_span > tau then acc + d.bd_span else acc)
    0 t.batch_details

let count_long ~tau t =
  List.length (List.filter (fun d -> d.bd_span > tau) t.batch_details)

let zero ~p =
  {
    p;
    makespan = 0;
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
    max_batches_while_pending = 0;
    span_realized = 0;
    total_records = 0;
    batch_details = [];
  }

let throughput t =
  if t.makespan = 0 then 0.0
  else float_of_int t.total_records /. float_of_int t.makespan

let speedup ~baseline t = float_of_int baseline.makespan /. float_of_int t.makespan
