type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

(* Plain loops, not [Array.fold_left]: a fold passes each element to a
   closure, boxing it. Each sum runs left to right from 0.0, the fold's
   order, so the results are bit-identical to the fold's. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. xs.(i)
  done;
  !acc /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = ref 0.0 in
    for i = 0 to n - 1 do
      let d = xs.(i) -. m in
      ss := !ss +. (d *. d)
    done;
    sqrt (!ss /. float_of_int (n - 1))
  end

(* ---- sorting ----

   [Array.sort Float.compare] is polymorphic: it reads every element
   through the generic array accessor, which boxes a float per read, and
   compares through a closure. This sort is monomorphic, so no read
   boxes: a bottom-up merge sort over insertion-sorted runs of 16,
   passing between the array and one scratch buffer. The order is
   [Float.compare]'s (nan below every number), so the result equals
   [Array.sort Float.compare]'s. *)

(* [Float.compare a b < 0], spelt so the common case is one unboxed
   [<]: a nan is below every number and equal to another nan. *)
let[@inline] lt (a : float) b = a < b || (a <> a && b = b)

(* Merge the ascending runs [src.(lo..mid-1)] and [src.(mid..hi-1)]
   into [dst.(lo..hi-1)]; a tie takes the left run's element first. *)
let merge_into (src : float array) (dst : float array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let a = src.(!i) and b = src.(!j) in
    if lt b a then begin
      dst.(!k) <- b;
      incr j
    end
    else begin
      dst.(!k) <- a;
      incr i
    end;
    incr k
  done;
  if !i < mid then Array.blit src !i dst !k (mid - !i)
  else Array.blit src !j dst !k (hi - !j)

(* Merge adjacent ascending runs of [a] pairwise, round by round, until
   one is left. Run [r] is [a.(bounds.(r) .. bounds.(r+1) - 1)] for
   [r < runs]; [bounds.(runs) = Array.length a]. [bounds] is
   overwritten. *)
let merge_runs (a : float array) bounds runs =
  let n = Array.length a in
  let src = ref a in
  let dst = ref (if runs > 1 then Array.create_float n else a) in
  let runs = ref runs in
  while !runs > 1 do
    let s = !src and d = !dst in
    let r = ref 0 in
    while !r < !runs do
      let lo = bounds.(!r) in
      if !r + 1 < !runs then
        merge_into s d lo bounds.(!r + 1) bounds.(!r + 2)
      else Array.blit s lo d lo (n - lo);
      (* The merged run starts where its left half did. *)
      bounds.(!r / 2) <- lo;
      r := !r + 2
    done;
    runs := (!runs + 1) / 2;
    bounds.(!runs) <- n;
    src := d;
    dst := s
  done;
  if !src != a then Array.blit !src 0 a 0 n

let run_len = 16

let sort (a : float array) =
  let n = Array.length a in
  let runs = (n + run_len - 1) / run_len in
  let bounds = Array.make (runs + 1) n in
  for r = 0 to runs - 1 do
    let lo = r * run_len in
    let hi = min n (lo + run_len) in
    bounds.(r) <- lo;
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && lt x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  done;
  merge_runs a bounds runs

let merge sorted =
  let runs = Array.length sorted in
  let bounds = Array.make (runs + 1) 0 in
  for r = 0 to runs - 1 do
    bounds.(r + 1) <- bounds.(r) + Array.length sorted.(r)
  done;
  let a = Array.create_float bounds.(runs) in
  Array.iteri
    (fun r s -> Array.blit s 0 a bounds.(r) (Array.length s))
    sorted;
  merge_runs a bounds runs;
  a

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
  sort sorted;
  percentile_sorted sorted q

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  (* [Stdlib.min]'s and [max]'s own tests, on unboxed floats. *)
  let mn = ref xs.(0) and mx = ref xs.(0) in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if not (!mn <= x) then mn := x;
    if not (!mx >= x) then mx := x
  done;
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = !mn;
    max = !mx;
    median = percentile xs 0.5;
  }

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geomean: empty";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if x <= 0.0 then invalid_arg "Stats.geomean: nonpositive sample";
    acc := !acc +. log x
  done;
  exp (!acc /. float_of_int n)
