type t = {
  name : string;
  reset : unit -> unit;
  batch_cost : int array -> Par.t;
  seq_cost : int -> int;
}

let log2_cost n =
  let n = max 2 n in
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 n
