(* The ledger's pure half: quartiles, the comparison verdict, and the
   capacity bisection. Nothing here touches a clock or a pool, so
   test_rules.ml pins every rule without running a benchmark. *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

(* One metric of one run: every per-rep sample, in measurement order.
   [bound] is the share of the old median by which the metric may
   worsen before a comparison calls it worse; per-layer metrics carry
   none. *)
type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
  values : float list;
}

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles exactly as Python's
   [statistics.quantiles xs ~n:4] (method "exclusive") computes them, so
   a spread printed here is the spread a reader recomputes from the JSON
   values. A single sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* ---- comparison (choosing-metrics §6 step 5 and §8) ---- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let beats better a b = match better with Higher -> a > b | Lower -> a < b

(* [old_] and [new_] are the two sides' per-run samples. In order:
   - better: over at least ten pairs (the i-th sample of each side), the
     new side wins at least nine tenths (ties count for neither), and
     the medians differ, in the good direction, by more than the old
     side's own interquartile distance;
   - worse: the new median is worse than the old by more than [bound]
     (as a share of the old median);
   - unresolved: either side's spread is wider than [bound], unless
     every new sample beats every old one;
   - same: otherwise. *)
let verdict ~better ~bound ~old_ ~new_ =
  let mo = median old_ and mn = median new_ in
  let pairs = min (List.length old_) (List.length new_) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.fold_left2
      (fun acc n o -> if beats better n o then acc + 1 else acc)
      0 (take new_) (take old_)
  in
  let q1, q3 = quartiles old_ in
  let gain = match better with Higher -> mn -. mo | Lower -> mo -. mn in
  let worse_by = -.gain /. Float.abs mo in
  let all_beat =
    List.for_all (fun n -> List.for_all (fun o -> beats better n o) old_) new_
  in
  if pairs >= 10 && 10 * wins >= 9 * pairs && gain > q3 -. q1 then Better
  else if worse_by > bound then Worse
  else if (spread old_ > bound || spread new_ > bound) && not all_beat then
    Unresolved
  else Same

(* ---- capacity search ---- *)

type probe = { target : float; offered : float; kept_up : bool }

(* Bisection over a fixed bracket: [steps] probes, each at the midpoint
   of the current bracket; a probe that kept up raises the floor, one
   that did not lowers the ceiling. The capacity is the offered rate of
   the highest probe that kept up — [None] when no probed rate kept up,
   an explicit verdict rather than a made-up rate. [run target] returns
   the offered rate actually generated and whether it kept up. *)
let bisect ~lo ~hi ~steps run =
  let rec go lo hi k best probes =
    if k = 0 then (best, List.rev probes)
    else
      let target = (lo +. hi) /. 2.0 in
      let offered, kept_up = run target in
      let p = { target; offered; kept_up } in
      if kept_up then go target hi (k - 1) (Some offered) (p :: probes)
      else go lo target (k - 1) best (p :: probes)
  in
  go lo hi steps None []
