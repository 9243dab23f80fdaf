(* Unit and property tests for the util library. *)

let test_rng_deterministic () =
  let a = Util.Rng.create ~seed:7 in
  let b = Util.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next64 a) (Util.Rng.next64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create ~seed:7 in
  let b = Util.Rng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.next64 a = Util.Rng.next64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_streams_independent () =
  let a = Util.Rng.stream ~seed:1 ~index:0 in
  let b = Util.Rng.stream ~seed:1 ~index:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.next64 a = Util.Rng.next64 b then incr same
  done;
  Alcotest.(check bool) "worker streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Util.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Util.Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Util.Rng.int r 0))

let test_rng_float_bounds () =
  let r = Util.Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

(* First outputs of two generators, captured before the state moved into
   an unboxed buffer: every simulation seed depends on them. *)
let first_draws r =
  let n1 = Util.Rng.next64 r in
  let n2 = Util.Rng.next64 r in
  let i = Util.Rng.int r 1_000_000 in
  let f = Util.Rng.float r 1.0 in
  let b1 = Util.Rng.bool r in
  let b2 = Util.Rng.bool r in
  Printf.sprintf "%Ld %Ld %d %h %b %b" n1 n2 i f b1 b2

let test_rng_golden () =
  Alcotest.(check string) "create ~seed:7"
    "1021219803524665661 3174977118032272916 886044 0x1.b5767da98c6p-2 false true"
    (first_draws (Util.Rng.create ~seed:7));
  Alcotest.(check string) "stream ~seed:1 ~index:3"
    "-1957828033278351048 3485776500660471439 646463 0x1.03d656f9fd738p-3 false true"
    (first_draws (Util.Rng.stream ~seed:1 ~index:3))

(* A bounded draw allocates nothing. Gc.minor_words boxes its own float
   result, hence the slack. *)
let test_rng_int_allocation_free () =
  let r = Util.Rng.create ~seed:9 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Util.Rng.int r 7
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool) "draws in range" true (!acc >= 0 && !acc < 70_000);
  if delta > 16. then Alcotest.failf "Rng.int allocated %.0f minor words" delta

(* [skip t n] leaves [t] where [n] calls of [next64] would. *)
let skip_matches_draws ~seed n =
  let a = Util.Rng.create ~seed and b = Util.Rng.create ~seed in
  Util.Rng.skip a n;
  for _ = 1 to n do
    ignore (Util.Rng.next64 b)
  done;
  List.init 4 (fun _ -> Util.Rng.next64 a) = List.init 4 (fun _ -> Util.Rng.next64 b)

let test_rng_skip () =
  Alcotest.(check bool) "n = 0" true (skip_matches_draws ~seed:7 0);
  Alcotest.(check bool) "n = 1" true (skip_matches_draws ~seed:7 1)

let prop_rng_skip =
  QCheck.Test.make ~name:"Rng.skip n = n next64 draws" ~count:200
    QCheck.(pair (0 -- 1_000_000) (0 -- 10_000))
    (fun (seed, n) -> skip_matches_draws ~seed n)

(* A skip allocates nothing either: a loop of [ignore (next64 t)] in
   another module boxes each int64 it discards (3 words a draw). *)
let test_rng_skip_allocation_free () =
  let r = Util.Rng.create ~seed:9 in
  let before = Gc.minor_words () in
  Util.Rng.skip r 10_000;
  let delta = Gc.minor_words () -. before in
  if delta > 16. then Alcotest.failf "Rng.skip allocated %.0f minor words" delta

let test_shuffle_permutation () =
  let r = Util.Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Util.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_stats_summary () =
  let s = Util.Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Util.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 2.5 s.Util.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Util.Stats.max;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 s.Util.Stats.stddev

let test_stats_single () =
  let s = Util.Stats.summarize [| 42.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 s.Util.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Util.Stats.stddev

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Util.Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 30.0 (Util.Stats.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Util.Stats.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "p25" 20.0 (Util.Stats.percentile xs 0.25)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Util.Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_prefix_inclusive () =
  Alcotest.(check (array int)) "inclusive" [| 1; 3; 6; 10 |]
    (Util.Prefix_sum.inclusive [| 1; 2; 3; 4 |])

let test_prefix_exclusive () =
  Alcotest.(check (array int)) "exclusive" [| 0; 1; 3; 6 |]
    (Util.Prefix_sum.exclusive [| 1; 2; 3; 4 |])

let test_prefix_empty () =
  Alcotest.(check (array int)) "empty inclusive" [||] (Util.Prefix_sum.inclusive [||]);
  Alcotest.(check (array int)) "empty exclusive" [||] (Util.Prefix_sum.exclusive [||])

let test_prefix_inplace () =
  let a = [| 5; -2; 7 |] in
  Util.Prefix_sum.inclusive_inplace a;
  Alcotest.(check (array int)) "inplace" [| 5; 3; 10 |] a

let test_compact () =
  Alcotest.(check (array int)) "compact" [| 1; 2; 3 |]
    (Util.Prefix_sum.compact [| None; Some 1; None; Some 2; Some 3; None |]);
  Alcotest.(check (array int)) "compact empty" [||]
    (Util.Prefix_sum.compact [| None; None |]);
  Alcotest.(check (array int)) "compact all" [| 9; 8 |]
    (Util.Prefix_sum.compact [| Some 9; Some 8 |])

(* Property tests. *)

let prop_prefix_sums_correct =
  QCheck.Test.make ~name:"prefix sums match naive"
    QCheck.(list small_signed_int)
    (fun l ->
      let a = Array.of_list l in
      let inc = Util.Prefix_sum.inclusive a in
      let ok = ref true in
      let acc = ref 0 in
      Array.iteri
        (fun i x ->
          acc := !acc + x;
          if inc.(i) <> !acc then ok := false)
        a;
      !ok)

let prop_exclusive_shifts_inclusive =
  QCheck.Test.make ~name:"exclusive = inclusive shifted"
    QCheck.(list small_signed_int)
    (fun l ->
      let a = Array.of_list l in
      let inc = Util.Prefix_sum.inclusive a in
      let exc = Util.Prefix_sum.exclusive a in
      let ok = ref true in
      Array.iteri (fun i x -> if exc.(i) + x <> inc.(i) then ok := false) a;
      !ok)

let prop_compact_preserves_some =
  QCheck.Test.make ~name:"compact keeps Some entries in order"
    QCheck.(list (option small_nat))
    (fun l ->
      let a = Array.of_list l in
      let packed = Util.Prefix_sum.compact a in
      Array.to_list packed = List.filter_map Fun.id l)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in q"
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.0))
              (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (l, (q1, q2)) ->
      QCheck.assume (l <> []);
      let xs = Array.of_list l in
      let lo = min q1 q2 and hi = max q1 q2 in
      Util.Stats.percentile xs lo <= Util.Stats.percentile xs hi +. 1e-9)

(* Lengths at and beside small powers of two, drawn beside uniform
   ones. *)
let near_run =
  [ 0; 1; 2; 15; 16; 17; 31; 32; 33; 47; 48; 49; 255; 256; 257; 1023; 1025 ]

(* Stats.radix_sort against Array.sort compare on ints: sizes 0-5000
   in six shapes — wide signed values, duplicates (zero and negatives
   among them), values within 2^20 of min_int and of max_int together,
   latencies that need few passes, one constant, and draws from the
   extremes themselves. *)
let int_sort_input ~shape ~n ~seed =
  let rng = Util.Rng.create ~seed in
  let wide _ = Int64.to_int (Util.Rng.next64 rng) in
  match shape with
  | 0 -> Array.init n wide
  | 1 -> Array.init n (fun _ -> Util.Rng.int rng 11 - 5)
  | 2 ->
      Array.init n (fun _ ->
          let d = Util.Rng.int rng (1 lsl 20) in
          if Util.Rng.bool rng then min_int + d else max_int - d)
  | 3 -> Array.init n (fun _ -> Util.Rng.int rng 5_000_000)
  | 4 -> Array.make n (wide 0)
  | _ ->
      let pool =
        [| min_int; min_int + 1; -256; -1; 0; 1; 255; 256; max_int - 1; max_int |]
      in
      Array.init n (fun _ -> pool.(Util.Rng.int rng (Array.length pool)))

let prop_radix_sort_matches_array_sort =
  QCheck.Test.make ~name:"Stats.radix_sort = Array.sort compare" ~count:400
    QCheck.(
      triple (0 -- 5)
        (make ~print:string_of_int
           Gen.(frequency [ (3, int_range 0 5000); (2, oneofl near_run) ]))
        (0 -- 1_000_000))
    (fun (shape, n, seed) ->
      let a = int_sort_input ~shape ~n ~seed in
      let expected = Array.copy a in
      Array.sort compare expected;
      Util.Stats.radix_sort a;
      a = expected)

(* The mean's loop sums in the fold's order: equal to the bit. *)
let prop_mean_is_fold =
  QCheck.Test.make ~name:"Stats.mean sums as Array.fold_left does" ~count:200
    QCheck.(pair (1 -- 2000) (0 -- 1_000_000))
    (fun (n, seed) ->
      let rng = Util.Rng.create ~seed in
      let xs = Array.init n (fun _ -> Util.Rng.float rng 2e6 -. 1e6) in
      let fold = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
      Int64.bits_of_float (Util.Stats.mean xs) = Int64.bits_of_float fold)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rng_skip;
      prop_prefix_sums_correct;
      prop_exclusive_shifts_inclusive;
      prop_compact_preserves_some;
      prop_percentile_monotone;
      prop_radix_sort_matches_array_sort;
      prop_mean_is_fold ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "streams independent" `Quick test_rng_streams_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "golden first draws" `Quick test_rng_golden;
          Alcotest.test_case "int allocation-free" `Quick test_rng_int_allocation_free;
          Alcotest.test_case "skip matches draws" `Quick test_rng_skip;
          Alcotest.test_case "skip allocation-free" `Quick test_rng_skip_allocation_free;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
        ] );
      ( "prefix_sum",
        [
          Alcotest.test_case "inclusive" `Quick test_prefix_inclusive;
          Alcotest.test_case "exclusive" `Quick test_prefix_exclusive;
          Alcotest.test_case "empty" `Quick test_prefix_empty;
          Alcotest.test_case "inplace" `Quick test_prefix_inplace;
          Alcotest.test_case "compact" `Quick test_compact;
        ] );
      ("properties", qcheck_cases);
    ]
