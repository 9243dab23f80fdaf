type t = {
  mutable data : int array;
  mutable size : int;
}

let initial_capacity = 8

let create ?(capacity = initial_capacity) () =
  { data = Array.make (max 1 capacity) 0; size = 0 }

let size t = t.size
let capacity t = Array.length t.data

type pop_record = { mutable popped : int option }

type op =
  | Push of int
  | Pop of pop_record

let push v = Push v
let pop () = Pop { popped = None }

let resize t new_capacity =
  let new_capacity = max initial_capacity new_capacity in
  if new_capacity <> Array.length t.data then begin
    let data = Array.make new_capacity 0 in
    (* A loop, not [Array.blit]: a blit into an array in the major heap
       writes every word through [caml_modify]. *)
    let old = t.data in
    for i = 0 to t.size - 1 do
      data.(i) <- old.(i)
    done;
    t.data <- data
  end

let ensure t needed =
  let cap = Array.length t.data in
  if needed > cap then begin
    let rec grow c = if c >= needed then c else grow (2 * c) in
    resize t (grow cap)
  end
  else if needed < cap / 4 && cap > initial_capacity then
    resize t (max initial_capacity (cap / 2))

let run_batch t d =
  let pushes = Array.fold_left (fun acc o -> match o with Push _ -> acc + 1 | Pop _ -> acc) 0 d in
  ensure t (t.size + pushes);
  (* PUSH phase: batch order = slot order, as in the paper. *)
  Array.iter (function Push v -> t.data.(t.size) <- v; t.size <- t.size + 1 | Pop _ -> ()) d;
  (* POP phase. *)
  Array.iter
    (function
      | Push _ -> ()
      | Pop r ->
          if t.size = 0 then r.popped <- None
          else begin
            t.size <- t.size - 1;
            r.popped <- Some t.data.(t.size)
          end)
    d;
  ensure t t.size

let push_seq t v = run_batch t [| Push v |]

let pop_seq t =
  match pop () with
  | Pop r as o ->
      run_batch t [| o |];
      r.popped
  | Push _ -> assert false

let to_list t = Array.to_list (Array.sub t.data 0 t.size)

let sim_model ?(records_per_node = 1) ?(pop_fraction = 0.0) ?(seed = 42) () =
  (* The model tracks only size and capacity; the push/pop mix per record
     is drawn from a private deterministic stream. *)
  let size = ref 0 in
  let cap = ref initial_capacity in
  let rng = ref (Util.Rng.create ~seed) in
  let reset () =
    size := 0;
    cap := initial_capacity;
    rng := Util.Rng.create ~seed
  in
  let draw_ops x =
    let pops = ref 0 in
    for _ = 1 to x do
      if Util.Rng.float !rng 1.0 < pop_fraction then incr pops
    done;
    (x - !pops, !pops)
  in
  let rebuild_cost () =
    (* Copy the whole table in parallel: Θ(size) work, Θ(lg size) span. *)
    Par.balanced ~leaf_cost:(fun _ -> 1) (max 1 !size)
  in
  let apply pushes pops =
    let rebuilds = ref [] in
    size := !size + pushes;
    if !size > !cap then begin
      rebuilds := rebuild_cost () :: !rebuilds;
      while !size > !cap do
        cap := !cap * 2
      done
    end;
    size := max 0 (!size - pops);
    if !size < !cap / 4 && !cap > initial_capacity then begin
      rebuilds := rebuild_cost () :: !rebuilds;
      while !size < !cap / 4 && !cap > initial_capacity do
        cap := max initial_capacity (!cap / 2)
      done
    end;
    !rebuilds
  in
  let batch_cost nodes =
    let x = records_per_node * Array.length nodes in
    let pushes, pops = draw_ops x in
    let rebuilds = apply pushes pops in
    let phase = Par.balanced ~leaf_cost:(fun _ -> 1) (max 1 x) in
    Par.series (rebuilds @ [ phase; phase ])
  in
  let seq_cost _ =
    let pushes, pops = draw_ops records_per_node in
    let rebuilds = apply pushes pops in
    let rebuild_work =
      List.fold_left (fun acc p -> acc + Par.work p) 0 rebuilds
    in
    max 1 records_per_node + rebuild_work
  in
  { Model.name = "stack"; reset; batch_cost; seq_cost }
