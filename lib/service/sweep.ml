(* Latency vs offered load: re-run the runtime leg at scaled arrival
   rates and find the throughput knee at the scenario's largest K.

   Each grid point is one [Rt_driver.run_point] with the scenario's
   rt_rate multiplied by a sweep factor and request tracing on, so
   every point carries an exact per-phase decomposition of its total
   latency ([Obs.Reqtrace.totals]) — past the knee the interesting
   question is not "p99 doubled" but "p99 is now 86% pending-wait",
   and the shares answer it.

   Knee definition: a point *keeps up* when delivered goodput is at
   least [knee_threshold] of the offered rate; the knee is the highest
   offered rate (in the swept grid) that keeps up. Goodput, measured
   on the driver's wall clock over an open-loop schedule, is the
   honest side of the ratio — offered load is fixed by the generator
   before the run, so a system past saturation shows a widening gap
   rather than the closed-loop illusion of "100% of what we asked". *)

type point = {
  mult : float;  (* rate multiplier applied to the scenario's rt_rate *)
  offered_req_s : float;  (* scheduled requests / duration *)
  pt : Rt_driver.point;  (* goodput, digests, and the request trace *)
  shares : (string * float) list;  (* Obs.Reqtrace.shares of the point *)
}

type knee_status = No_point_kept_up | Inside_grid | Top_kept_up

type knee = {
  knee_req_s : float;  (* 0.0 when no swept point kept up *)
  knee_mult : float;
  k_status : knee_status;
}

type t = { shards : int; points : point list; knee : knee }

let knee_threshold = 0.9
let default_mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* Knee extraction is pure over the measured points, so its status
   (no point kept up, a knee inside the grid, or the grid's top kept up
   and the knee is only a lower bound) is unit-testable without timed
   runs. *)
let knee_of_points points =
  let keeping =
    List.filter
      (fun p ->
        p.offered_req_s > 0.0
        && p.pt.Rt_driver.goodput /. p.offered_req_s >= knee_threshold)
      points
  in
  let top = List.fold_left (fun m p -> Float.max m p.mult) 0.0 points in
  let best =
    List.fold_left
      (fun acc p ->
        match acc with
        | Some b when b.offered_req_s >= p.offered_req_s -> acc
        | _ -> Some p)
      None keeping
  in
  match best with
  | Some p ->
      {
        knee_req_s = p.offered_req_s;
        knee_mult = p.mult;
        k_status =
          (if List.exists (fun p -> p.mult = top) keeping then Top_kept_up
           else Inside_grid);
      }
  | None -> { knee_req_s = 0.0; knee_mult = 0.0; k_status = No_point_kept_up }

let run ?(mults = default_mults) ?workers ?duration_s (sc : Scenario.t) =
  if mults = [] then invalid_arg "Sweep.run: mults must be non-empty";
  (* The scenario's largest K: the knee of the most scaled
     configuration is the headline number. *)
  let shards =
    match List.rev sc.Scenario.rt_shards with k :: _ -> k | [] -> 1
  in
  (* A sweep multiplies runs; keep each point short unless the caller
     asks otherwise. *)
  let duration_s =
    match duration_s with
    | Some d -> d
    | None -> Float.min sc.Scenario.duration_s 1.0
  in
  let points =
    List.map
      (fun mult ->
        let pt =
          Rt_driver.run_point ?workers ~duration_s ~trace:true
            { sc with Scenario.rt_rate = sc.Scenario.rt_rate *. mult }
            ~shards
        in
        {
          mult;
          offered_req_s = float_of_int pt.Rt_driver.requests /. duration_s;
          pt;
          shares = Obs.Reqtrace.(shares (totals pt.Rt_driver.trace));
        })
      mults
  in
  { shards; points; knee = knee_of_points points }
