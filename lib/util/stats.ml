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

(* ---- integer sort ----

   LSD radix sort on 8-bit digits. Flipping the sign bit maps the ints
   in signed order onto the unsigned ones in the same order, so every
   int sorts, negatives included. The digits above the highest bit
   where the smallest and largest input differ are the same for every
   input, so the passes stop there: inputs in [0, 2^32) take at most
   four. Each pass is a counting pass and a stable scatter between the
   array and one scratch buffer; both are [int array]s, so no store
   goes through the write barrier. *)

let digit_bits = 8
let digit_mask = (1 lsl digit_bits) - 1

let radix_sort (a : int array) =
  let n = Array.length a in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let x = a.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  (* No pass when every element is equal, nor for fewer than two. *)
  let passes = ref 0 and varying = ref (if n > 1 then !lo lxor !hi else 0) in
  while !varying <> 0 do
    incr passes;
    varying := !varying lsr digit_bits
  done;
  if !passes > 0 then begin
    let count = Array.make (1 lsl digit_bits) 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    for pass = 0 to !passes - 1 do
      let s = !src and d = !dst and shift = pass * digit_bits in
      Array.fill count 0 (Array.length count) 0;
      for i = 0 to n - 1 do
        let b = ((s.(i) lxor min_int) lsr shift) land digit_mask in
        count.(b) <- count.(b) + 1
      done;
      (* Counts to the first slot of each digit's run. *)
      let next = ref 0 in
      for b = 0 to digit_mask do
        let c = count.(b) in
        count.(b) <- !next;
        next := !next + c
      done;
      for i = 0 to n - 1 do
        let x = s.(i) in
        let b = ((x lxor min_int) lsr shift) land digit_mask in
        d.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s
    done;
    if !src != a then begin
      let s = !src in
      for i = 0 to n - 1 do
        a.(i) <- s.(i)
      done
    end
  end

(* Linear interpolation at quantile [q] between the order statistics of
   [n] sorted samples, [get i] being the [i]th smallest. *)
let[@inline] interpolate n get q =
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then get lo
  else begin
    let frac = pos -. float_of_int lo in
    (get lo *. (1.0 -. frac)) +. (get hi *. frac)
  end

let percentile_sorted_int sorted q =
  interpolate (Array.length sorted) (fun i -> float_of_int sorted.(i)) q

let percentile xs q =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  interpolate (Array.length sorted) (fun i -> sorted.(i)) q

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
