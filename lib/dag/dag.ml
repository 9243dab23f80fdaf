type kind = Core | Ds of int

type t = {
  costs : int array;
  kinds : kind array;
  succs : int array array;
  pred_count : int array;
  source : int;
  sink : int;
}

let size t = Array.length t.costs

(* Kahn's algorithm in FIFO order. Every node is enqueued once, so
   [order] itself is the queue: [order.(head .. filled - 1)] are the
   ready nodes not yet expanded. *)
let topological_order t =
  let n = size t in
  let remaining = Array.copy t.pred_count in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let enqueue v =
    order.(!filled) <- v;
    incr filled
  in
  for v = 0 to n - 1 do
    if remaining.(v) = 0 then enqueue v
  done;
  let head = ref 0 in
  while !head < !filled do
    let v = order.(!head) in
    incr head;
    Array.iter
      (fun w ->
        remaining.(w) <- remaining.(w) - 1;
        if remaining.(w) = 0 then enqueue w)
      t.succs.(v)
  done;
  if !filled <> n then failwith "Dag.topological_order: graph has a cycle";
  order

let work t = Array.fold_left ( + ) 0 t.costs

let span t =
  let order = topological_order t in
  let dist = Array.make (size t) 0 in
  Array.iter
    (fun v ->
      let here = dist.(v) + t.costs.(v) in
      Array.iter (fun w -> if here > dist.(w) then dist.(w) <- here) t.succs.(v))
    order;
  dist.(t.sink) + t.costs.(t.sink)

let ds_count t =
  Array.fold_left
    (fun acc k -> match k with Ds _ -> acc + 1 | Core -> acc)
    0 t.kinds

let ds_depth t =
  let order = topological_order t in
  let depth = Array.make (size t) 0 in
  let node_ds v = match t.kinds.(v) with Ds _ -> 1 | Core -> 0 in
  Array.iter
    (fun v ->
      let here = depth.(v) + node_ds v in
      Array.iter (fun w -> if here > depth.(w) then depth.(w) <- here) t.succs.(v))
    order;
  depth.(t.sink) + node_ds t.sink

let to_dot ?(name = "dag") fmt t =
  Format.fprintf fmt "digraph %s {@." name;
  Format.fprintf fmt "  rankdir=TB;@.";
  for v = 0 to size t - 1 do
    match t.kinds.(v) with
    | Core ->
        Format.fprintf fmt "  n%d [shape=box,label=\"%d:%d\"];@." v v t.costs.(v)
    | Ds idx ->
        Format.fprintf fmt
          "  n%d [shape=ellipse,color=red,label=\"op%d\"];@." v idx
  done;
  for v = 0 to size t - 1 do
    Array.iter (fun w -> Format.fprintf fmt "  n%d -> n%d;@." v w) t.succs.(v)
  done;
  Format.fprintf fmt "}@."

let validate t =
  let n = size t in
  if n = 0 then failwith "Dag.validate: empty dag";
  (* Predecessor counts consistent with successor lists. *)
  let computed = Array.make n 0 in
  Array.iter
    (fun ss ->
      Array.iter
        (fun w ->
          if w < 0 || w >= n then failwith "Dag.validate: edge out of range";
          computed.(w) <- computed.(w) + 1)
        ss)
    t.succs;
  for v = 0 to n - 1 do
    if computed.(v) <> t.pred_count.(v) then
      failwith "Dag.validate: inconsistent predecessor counts"
  done;
  (* Unique source and sink. *)
  for v = 0 to n - 1 do
    if t.pred_count.(v) = 0 && v <> t.source then
      failwith "Dag.validate: node without predecessors is not the source";
    if Array.length t.succs.(v) = 0 && v <> t.sink then
      failwith "Dag.validate: node without successors is not the sink"
  done;
  if t.pred_count.(t.source) <> 0 then failwith "Dag.validate: source has predecessors";
  if Array.length t.succs.(t.sink) <> 0 then failwith "Dag.validate: sink has successors";
  (* Acyclicity (and, with the source check above, full reachability). *)
  ignore (topological_order t)

module Build = struct
  type builder = {
    mutable costs : int array;
    mutable kinds : kind array;
    mutable succs : int list array;
    mutable preds : int array;
    mutable len : int;
  }

  type frag = { entry : int; exit_ : int }

  let create () =
    { costs = Array.make 16 0;
      kinds = Array.make 16 Core;
      succs = Array.make 16 [];
      preds = Array.make 16 0;
      len = 0 }

  let node_count b = b.len

  let grow b =
    let cap = Array.length b.costs in
    let cap' = cap * 2 in
    let extend a fill = Array.append a (Array.make cap fill) in
    ignore cap';
    b.costs <- extend b.costs 0;
    b.kinds <- extend b.kinds Core;
    b.succs <- extend b.succs [];
    b.preds <- extend b.preds 0

  let add_node b cost kind =
    if b.len = Array.length b.costs then grow b;
    let id = b.len in
    b.costs.(id) <- max 1 cost;
    b.kinds.(id) <- kind;
    b.len <- b.len + 1;
    id

  let single b ?(cost = 1) kind =
    let id = add_node b cost kind in
    { entry = id; exit_ = id }

  let link b u v =
    b.succs.(u) <- v :: b.succs.(u);
    b.preds.(v) <- b.preds.(v) + 1

  let in_series b = function
    | [] -> invalid_arg "Dag.Build.in_series: empty"
    | first :: rest ->
        let exit_ =
          List.fold_left
            (fun prev f ->
              link b prev f.entry;
              f.exit_)
            first.exit_ rest
        in
        { entry = first.entry; exit_ }

  (* Balanced binary fork/join trees over the fragment array slice
     [lo, hi), mirroring Par.branch_work/branch_span exactly. *)
  let rec fork_join b frags lo hi =
    if hi - lo = 1 then frags.(lo)
    else begin
      let mid = (lo + hi) / 2 in
      let left = fork_join b frags lo mid in
      let right = fork_join b frags mid hi in
      let fork = add_node b 1 Core in
      let join = add_node b 1 Core in
      link b fork left.entry;
      link b fork right.entry;
      link b left.exit_ join;
      link b right.exit_ join;
      { entry = fork; exit_ = join }
    end

  let in_parallel b = function
    | [] -> invalid_arg "Dag.Build.in_parallel: empty"
    | frags ->
        let arr = Array.of_list frags in
        fork_join b arr 0 (Array.length arr)

  let rec of_par b (p : Par.t) =
    match p with
    | Par.Leaf c -> single b ~cost:c Core
    | Par.Series l -> in_series b (List.map (of_par b) l)
    | Par.Branch l -> in_parallel b (List.map (of_par b) l)

  let parallel_for b k body =
    if k < 1 then invalid_arg "Dag.Build.parallel_for: k must be >= 1";
    in_parallel b (List.init k body)

  let finish b frag =
    let n = b.len in
    let t =
      { costs = Array.sub b.costs 0 n;
        kinds = Array.sub b.kinds 0 n;
        succs = Array.init n (fun v -> Array.of_list (List.rev b.succs.(v)));
        pred_count = Array.sub b.preds 0 n;
        source = frag.entry;
        sink = frag.exit_ }
    in
    validate t;
    t
end
