(* Latency vs offered load: re-run the runtime leg at scaled arrival
   rates and find the throughput knee per K.

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
  shards : int;
  mult : float;  (* rate multiplier applied to the scenario's rt_rate *)
  offered_req_s : float;  (* scheduled requests / duration *)
  pt : Rt_driver.point;  (* goodput, digests, and the request trace *)
  shares : (string * float) list;  (* Obs.Reqtrace.shares of the point *)
}

type knee = {
  k_shards : int;
  knee_req_s : float;  (* 0.0 when no swept point kept up *)
  knee_mult : float;
  k_absent : bool;  (* no swept multiplier kept up at all *)
}

type t = {
  points : point list;
  knees : knee list;
}

let knee_threshold = 0.9
let default_mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let scale (sc : Scenario.t) mult =
  { sc with Scenario.rt_rate = sc.Scenario.rt_rate *. mult }

(* Knee extraction is pure over the measured points so the absent-knee
   contract (a K whose every swept multiplier failed to keep up yields
   an explicit [k_absent] knee, never a silent omission) is
   unit-testable without timed runs. *)
let knees_of_points ~shards points =
  List.map
    (fun k ->
      let keeping =
        List.filter
          (fun p ->
            p.shards = k && p.offered_req_s > 0.0
            && p.pt.Rt_driver.goodput /. p.offered_req_s >= knee_threshold)
          points
      in
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
            k_shards = k;
            knee_req_s = p.offered_req_s;
            knee_mult = p.mult;
            k_absent = false;
          }
      | None ->
          { k_shards = k; knee_req_s = 0.0; knee_mult = 0.0; k_absent = true })
    shards

let run ?(mults = default_mults) ?shards ?workers ?duration_s
    (sc : Scenario.t) =
  if mults = [] then invalid_arg "Sweep.run: mults must be non-empty";
  let shards =
    match shards with
    | Some ks -> ks
    | None -> (
        (* Default: the scenario's largest K — the knee of the most
           scaled configuration is the headline number. *)
        match List.rev sc.Scenario.rt_shards with
        | k :: _ -> [ k ]
        | [] -> [ 1 ])
  in
  (* A sweep multiplies runs; keep each point short unless the caller
     asks otherwise. *)
  let duration_s =
    match duration_s with
    | Some d -> d
    | None -> Float.min sc.Scenario.duration_s 1.0
  in
  let points =
    List.concat_map
      (fun k ->
        List.map
          (fun mult ->
            let pt =
              Rt_driver.run_point ?workers ~duration_s ~trace:true
                (scale sc mult) ~shards:k
            in
            {
              shards = k;
              mult;
              offered_req_s = float_of_int pt.Rt_driver.requests /. duration_s;
              pt;
              shares = Obs.Reqtrace.(shares (totals pt.Rt_driver.trace));
            })
          mults)
      shards
  in
  let knees = knees_of_points ~shards points in
  { points; knees }
