type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile_sorted sorted q =
  if Array.length sorted = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile xs q =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted q

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = mn;
    max = mx;
    median = percentile xs 0.5;
  }

let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geomean: empty";
  let acc =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive sample";
        acc +. log x)
      0.0 xs
  in
  exp (acc /. float_of_int (Array.length xs))
