(* The ledger's pure rules: quartiles as Python computes them, the
   comparison verdict, and the capacity bisection. *)

let close = Alcotest.float 1e-9

let test_quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let check xs (q1, q3) =
    let a, b = Rules.quartiles xs in
    Alcotest.check close "q1" q1 a;
    Alcotest.check close "q3" q3 b
  in
  check [ 1.0; 2.0 ] (0.75, 2.25);
  check (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 8.25);
  check [ 5.0; 1.0; 3.0 ] (1.0, 5.0);
  check [ 3.3; 1.1; 2.2; 9.9; 4.4 ] (1.65, 7.15);
  check [ 4.0 ] (4.0, 4.0)

let test_median () =
  Alcotest.check close "odd" 3.0 (Rules.median [ 5.0; 3.0; 1.0 ]);
  Alcotest.check close "even" 2.5 (Rules.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "spread" (5.5 /. 5.5)
    (Rules.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Rules.verdict_name v))
    ( = )

(* Ten samples within 1% of [m]. *)
let around m = List.init 10 (fun i -> m *. (0.99 +. (0.002 *. float_of_int i)))

let test_verdicts () =
  let v better old_ new_ = Rules.verdict ~better ~bound:0.10 ~old_ ~new_ in
  Alcotest.check verdict "identical runs are the same" Rules.Same
    (v Rules.Higher (around 100.0) (around 100.0));
  Alcotest.check verdict "5% slower within a 10% bound is the same" Rules.Same
    (v Rules.Higher (around 100.0) (around 95.0));
  Alcotest.check verdict "20% slower is worse" Rules.Worse
    (v Rules.Higher (around 100.0) (around 80.0));
  Alcotest.check verdict "20% more latency is worse" Rules.Worse
    (v Rules.Lower (around 100.0) (around 120.0));
  Alcotest.check verdict "winning every pair beyond the spread is better"
    Rules.Better
    (v Rules.Higher (around 100.0) (around 105.0));
  Alcotest.check verdict "less latency is better" Rules.Better
    (v Rules.Lower (around 100.0) (around 90.0));
  Alcotest.check verdict "spread wider than the bound is unresolved"
    Rules.Unresolved
    (v Rules.Higher [ 60.0; 100.0; 140.0; 80.0; 120.0 ]
       [ 70.0; 95.0; 130.0; 85.0; 110.0 ]);
  Alcotest.check verdict "wide spread but every new run ahead is not unresolved"
    Rules.Same
    (v Rules.Higher [ 60.0; 70.0; 80.0; 90.0; 100.0 ]
       [ 200.0; 210.0; 220.0; 230.0; 240.0 ]);
  Alcotest.check verdict "fewer than ten pairs claim no gain" Rules.Same
    (v Rules.Higher [ 100.0 ] [ 150.0 ])

(* A synthetic service that keeps up exactly below [cap]. *)
let service cap target = (target, target <= cap)

let test_bisect_finds_knee () =
  let best, probes =
    Rules.bisect ~lo:100_000.0 ~hi:400_000.0 ~steps:5 (service 237_000.0)
  in
  Alcotest.(check (list (float 1e-6)))
    "probe targets" [ 250_000.0; 175_000.0; 212_500.0; 231_250.0; 240_625.0 ]
    (List.map (fun (p : Rules.probe) -> p.target) probes);
  Alcotest.(check (option (float 1e-6))) "capacity" (Some 231_250.0) best

let test_bisect_monotone () =
  let cap c = fst (Rules.bisect ~lo:100_000.0 ~hi:400_000.0 ~steps:5 (service c)) in
  let caps = List.init 60 (fun i -> 110_000.0 +. (5_000.0 *. float_of_int i)) in
  let found = List.map cap caps in
  List.iter2
    (fun c f ->
      match f with
      | Some f ->
          Alcotest.(check bool) "never above the true capacity" true (f <= c);
          Alcotest.(check bool) "within one final step" true
            (c -. f < 300_000.0 /. 32.0 +. 1e-6 || f >= 390_625.0)
      | None -> Alcotest.fail "a capacity inside the bracket was missed")
    caps found;
  let rec sorted = function
    | Some a :: (Some b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "higher capacity, higher estimate" true (sorted found)

let test_bisect_none_kept_up () =
  let best, probes =
    Rules.bisect ~lo:100_000.0 ~hi:400_000.0 ~steps:5 (service 50_000.0)
  in
  Alcotest.(check (option (float 1e-6))) "no rate kept up" None best;
  Alcotest.(check bool) "every probe fell behind" true
    (List.for_all (fun (p : Rules.probe) -> not p.kept_up) probes);
  Alcotest.(check int) "all steps probed" 5 (List.length probes)

let () =
  Alcotest.run "ledger"
    [
      ( "statistics",
        [
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
          Alcotest.test_case "median and spread" `Quick test_median;
        ] );
      ("compare", [ Alcotest.test_case "verdict rule" `Quick test_verdicts ]);
      ( "capacity",
        [
          Alcotest.test_case "bisection finds the knee" `Quick test_bisect_finds_knee;
          Alcotest.test_case "bisection is monotone" `Quick test_bisect_monotone;
          Alcotest.test_case "no rate kept up" `Quick test_bisect_none_kept_up;
        ] );
    ]
